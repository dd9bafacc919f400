"""The neural pattern scorer.

Architecture, per collapsed candidate sequence: every item string gets a word
representation (embedding, optionally concatenated with a character-CNN
vector); a left-to-right LSTM reads the representations and its last hidden
state is concatenated with a max-pooled word-level CNN vector; a single
sigmoid unit maps the result to a score in (0, 1).

All activations are row vectors, so every affine map is ``x @ W + b`` with W
shaped (inputs, outputs).  The character CNN slides a width-``char_cnn_window``
window over the embedded characters of a word (padded with <pad_char> to a
fixed length, zero vectors beyond the edges) and max-pools each filter over
time; the word CNN does the same over item representations.  The LSTM is the
standard cell

    i = sigmoid(h W1 + x W2 + b1)        f = sigmoid(h W3 + x W4 + b2)
    m~ = tanh(h W5 + x W6 + b3)          M = i * m~ + f * M_prev
    o = sigmoid(h W7 + x W8 + b4)        h = tanh(M) * o

with h_0 = M_0 = 0; setting ``peepholes`` adds mu1 * M_prev and mu2 * M_prev
inside the input and forget gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..collapse import CollapsedItem, CollapsedSequence
from ..errors import ConfigError, NerrankError
from ..numerics import (
    ParamStore,
    Tensor,
    concat_cols,
    dropout,
    lookup_row,
    lookup_rows,
    matmul,
    max_pool_time,
    maximum,
    shift_rows,
    sigmoid,
    stack_rows,
    tanh,
)
from .embeddings import init_embeddings
from .vocab import CHAR_PAD_ID, Vocab

INIT_STREAM = 21
DROPOUT_STREAM = 22


# marks a scorer setting that shapes training only, not the parameter set
TRAINING_ONLY = {"arch": False}


@dataclass(frozen=True)
class ScorerConfig:
    """Sizes and switches of the pattern scorer, under their config-key names."""

    word_dim: int = 50
    char_dim: int = 50
    lstm_hidden: int = 100
    char_cnn_filters: int = 50
    word_cnn_filters: int = 100
    char_cnn_window: int = 3
    word_cnn_window: int = 3
    use_lstm: bool = True
    use_char_cnn: bool = True
    use_word_cnn: bool = True
    peepholes: bool = False
    dropout: float = field(default=0.2, metadata=TRAINING_ONLY)
    freeze_embeddings: bool = field(default=False, metadata=TRAINING_ONLY)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:  # sizes and windows; bools are switches
                continue
            if f.name.endswith("_window") and (value < 1 or value % 2 == 0):
                raise ConfigError(f"{f.name} must be a positive odd number, got {value}")
            if value < 1:
                raise ConfigError(f"{f.name} must be positive, got {value}")
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigError(f"dropout must be in [0, 1], got {self.dropout}")
        if not (self.use_lstm or self.use_word_cnn):
            raise ConfigError("at least one of the LSTM and word CNN must be enabled")

    @classmethod
    def arch_keys(cls) -> tuple[str, ...]:
        """Settings that fix the parameter set; a loaded bundle must agree."""
        return tuple(f.name for f in fields(cls) if f.metadata.get("arch", True))

    @property
    def repr_dim(self) -> int:
        return self.word_dim + (self.char_cnn_filters if self.use_char_cnn else 0)

    @property
    def head_dim(self) -> int:
        return (self.lstm_hidden if self.use_lstm else 0) + (
            self.word_cnn_filters if self.use_word_cnn else 0
        )


@dataclass(frozen=True)
class ScoredCandidate:
    """One n-best candidate with its neural score and baseline probability."""

    index: int
    collapsed: CollapsedSequence
    score: float
    baseline_prob: float

    def __post_init__(self):
        if not 0.0 < self.score < 1.0:
            raise NerrankError(f"candidate score must be inside (0, 1): {self.score}")
        if not 0.0 < self.baseline_prob <= 1.0:
            raise NerrankError(
                f"baseline probability must be in (0, 1]: {self.baseline_prob}"
            )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


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

    def _char_vectors(self, words: list[str]) -> Tensor:
        """Character-CNN vectors for a batch of words, one row per word.

        Works column-wise over character positions so the whole batch shares
        one matmul per position: the window response at position j is
        [x_{j-1}, x_j, x_{j+1}] @ W + b (zero vectors beyond the edges), and
        a running elementwise max folds the per-position responses into the
        pooled output.
        """
        cfg = self.config
        ids = np.array([self._char_ids(w) for w in words], dtype=np.intp)
        length = self.char_pad
        cols = [lookup_rows(self.char_emb, ids[:, j]) for j in range(length)]
        zero = Tensor(np.zeros((len(words), cfg.char_dim)))
        half = cfg.char_cnn_window // 2
        pooled = None
        for j in range(length):
            window = concat_cols(
                [cols[j + o] if 0 <= j + o < length else zero
                 for o in range(-half, half + 1)]
            )
            resp = matmul(window, self.char_cnn_w) + self.char_cnn_b
            pooled = resp if pooled is None else maximum(pooled, resp)
        return pooled

    def char_cnn(self, word: str) -> Tensor:
        """Fixed-size character vector of one word, shape (1, char_cnn_filters)."""
        if not self.config.use_char_cnn:
            raise ConfigError("character CNN is disabled in this configuration")
        return self._char_vectors([word])

    def word_matrix(self, words: list[str]) -> Tensor:
        """Pre-dropout representations of the given words, one row each."""
        emb = lookup_rows(self.word_emb, [self.vocab.word_id(w) for w in words])
        if not self.config.use_char_cnn:
            return emb
        return concat_cols([emb, self._char_vectors(words)])

    def word_repr(self, item, *, train: bool = False) -> Tensor:
        """Representation of one collapsed item (or raw string), (1, repr_dim)."""
        text = item.token_string() if isinstance(item, CollapsedItem) else item
        row = self.word_matrix([text])
        return dropout(row, self.config.dropout, self._drop_rng, train)

    # -- sequence encoders ----------------------------------------------

    def lstm_encode(self, xs: list[Tensor]) -> Tensor:
        """Final hidden state after reading the rows left to right."""
        if not xs:
            raise NerrankError("cannot encode an empty sequence")
        cfg = self.config
        w1, w2, w3, w4, w5, w6, w7, w8 = self.lstm_w
        b1, b2, b3, b4 = self.lstm_b
        h = Tensor(np.zeros((1, cfg.lstm_hidden)))
        m = Tensor(np.zeros((1, cfg.lstm_hidden)))
        for x in xs:
            gate_i = matmul(h, w1) + matmul(x, w2) + b1
            gate_f = matmul(h, w3) + matmul(x, w4) + b2
            if cfg.peepholes:
                gate_i = gate_i + self.lstm_mu1 * m
                gate_f = gate_f + self.lstm_mu2 * m
            i = sigmoid(gate_i)
            f = sigmoid(gate_f)
            cand = tanh(matmul(h, w5) + matmul(x, w6) + b3)
            m = i * cand + f * m
            o = sigmoid(matmul(h, w7) + matmul(x, w8) + b4)
            h = tanh(m) * o
        return h

    def word_cnn_encode(self, xs: list[Tensor]) -> Tensor:
        """Max-pooled window responses over the rows, shape (1, word_cnn_filters)."""
        if not xs:
            raise NerrankError("cannot encode an empty sequence")
        half = self.config.word_cnn_window // 2
        x = stack_rows(xs)
        windows = concat_cols([shift_rows(x, s) for s in range(half, -half - 1, -1)])
        resp = matmul(windows, self.word_cnn_w) + self.word_cnn_b
        return max_pool_time(resp)

    # -- scoring ---------------------------------------------------------

    def score_batch(self, token_lists: list[list[str]], *, train: bool = False) -> list[Tensor]:
        """Score several token sequences against one shared word table.

        Each distinct word in the batch is represented once; the per-sequence
        graphs gather rows from that table, so batching changes cost but not
        the computation each sequence sees.
        """
        cfg = self.config
        unique = sorted({t for tokens in token_lists for t in tokens})
        if not unique:
            raise NerrankError("cannot score an empty sequence")
        table = self.word_matrix(unique)
        row_of = {w: i for i, w in enumerate(unique)}
        scores = []
        for tokens in token_lists:
            if not tokens:
                raise NerrankError("cannot score an empty sequence")
            xs = [lookup_row(table, row_of[t]) for t in tokens]
            if train and cfg.dropout > 0.0:
                xs = [dropout(x, cfg.dropout, self._drop_rng, True) for x in xs]
            parts = []
            if cfg.use_lstm:
                parts.append(self.lstm_encode(xs))
            if cfg.use_word_cnn:
                parts.append(self.word_cnn_encode(xs))
            h = parts[0] if len(parts) == 1 else concat_cols(parts)
            scores.append(sigmoid(matmul(h, self.head_w) + self.head_b))
        return scores

    def score_tokens(self, tokens: list[str], *, train: bool = False) -> Tensor:
        """Score one token sequence; the result is a (1, 1) tensor in (0, 1)."""
        return self.score_batch([tokens], train=train)[0]

    def score(self, collapsed, *, train: bool = False) -> Tensor:
        """Score a collapsed sequence (or a plain list of token strings)."""
        if isinstance(collapsed, CollapsedSequence):
            tokens = [item.token_string() for item in collapsed.items]
        else:
            tokens = list(collapsed)
        return self.score_tokens(tokens, train=train)

    def score_value(self, collapsed) -> float:
        """Evaluation-mode scalar score."""
        return self.score(collapsed, train=False).item()

    def trainable(self):
        """(name, tensor) pairs the optimizer should update."""
        frozen = {"word_emb"} if self.config.freeze_embeddings else set()
        return [(n, t) for n, t in self.params.items() if n not in frozen]
