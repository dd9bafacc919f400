"""Linear-chain CRF with exact probabilities and exact k-best decoding.

Scores decompose as begin[y_0] + sum_t emit(x_t, y_t) + trans[y_{t-1}, y_t]
+ end[y_T]. `CrfModel` holds each computation once: the emission sum over
feature ids, the path score, and the forward algorithm in log space, which
gives both the partition function and the alpha table that training's
forward-backward pass reuses. `crf_train` builds a zero-weight model and
trains it in place through those methods (exact NLL gradients, mini-batch
Adam).

Training runs on batches. `CrfModel.batch_nll` lays a minibatch out as a
padded (B, T, K) lattice with per-sentence lengths and computes the
emissions, path scores, forward and masked backward recursions, node
marginals and (B, T-1, K, K) edge marginals with one numpy expression per
step or for all steps at once; a one-sentence forward pass is
`log_partition`. The weights it trains are
bit-identical to those of a loop over sentences and positions, because
every sum keeps that loop's order (with two or more tags: numpy sums a
one-tag (n, 1) column pairwise, and the scatter below adds in sequence):
- a position's emission adds its ids' emit rows in sequence (one gather,
  then `np.add.at`, which adds in index order; `np.add.reduceat` does not
  give the same bits);
- the emit gradient is one such scatter in (sentence, position, id) order;
- the transition, begin and end gradients keep each sentence's
  interleaving of `+= marginal` and `-= 1` through `np.add.accumulate`,
  which adds strictly in sequence where a reduction may sum pairwise;
- the path score is a running sum in `score_tag_ids`' order, and NLLs are
  summed sentence by sentence in Python.
The reductions inside the recursions (over the previous tag forward, the
next tag backward) run along the same axes and lengths as one sentence's
would, so each sentence's numbers do not depend on its batch.

`kbest_decode` keeps a beam of up to k survivors per state as numpy
arrays. Two things make its ranking equal brute-force enumeration's, bit
for bit: the survivors' lexicographic ranks make (-score, rank) a total
order that prunes nothing enumeration would rank higher, and each step
adds `(s + trans) + e` in float64, the operations and order of
`CrfModel.score_tag_ids`. Its docstring gives the argument and the one
exception, a tie that rounding creates.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..corpus import ENTITY_TYPES, BioLabel, Dataset, LabelSeq, Sentence
from ..errors import CheckpointMismatchError, NerrankError
from ..numerics import AdamState, Tensor
from .features import FeatureTemplateSet, featurize
from .nbest import CandidateSet

log = logging.getLogger(__name__)

# sentences per batch of the no-gradient NLL pass. It bounds the (ids, K)
# gather of emit rows: on crf-wide's 200 training sentences (~760 ids each)
# one batch of all of them grew peak RSS by 10.7 MB and batches of 32 by
# 0.5 MB, and batches of 32 were also faster (0.027 s against 0.032 s)
NLL_CHUNK = 32

ALL_TAGS = tuple(sorted(["O"] + [f"{p}-{t}" for p in "BI" for t in ENTITY_TYPES]))


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis)


@dataclass
class CrfModel:
    tags: tuple[str, ...]
    feature_vocab: dict[str, int]
    templates: FeatureTemplateSet
    emit: np.ndarray  # (F, K)
    trans: np.ndarray  # (K, K)
    begin: np.ndarray  # (K,)
    end: np.ndarray  # (K,)
    nll_history: list[float] = field(default_factory=list)

    def __post_init__(self):
        k = len(self.tags)
        f = len(self.feature_vocab)
        weights = (self.emit, self.trans, self.begin, self.end)
        shapes = tuple(w.shape for w in weights)
        if shapes != ((f, k), (k, k), (k,), (k,)):
            raise ValueError(f"weight shapes {shapes} do not match {f} features and {k} tags")
        if not all(np.isfinite(w).all() for w in weights):
            raise ValueError("weights are not all finite")
        # parsed once; every decoded candidate shares these frozen labels
        self.labels = tuple(BioLabel.parse(tag) for tag in self.tags)
        self._tag_index = {t: i for i, t in enumerate(self.tags)}
        if len(self._tag_index) != k:
            raise ValueError(f"duplicate tags in {list(self.tags)}")

    def tag_id(self, label: BioLabel) -> int:
        text = str(label)
        if text not in self._tag_index:
            raise ValueError(f"label {text} is not in this model's tag set")
        return self._tag_index[text]

    def feature_ids(self, features: list[list[str]]) -> list[np.ndarray]:
        """Known feature ids per position of `featurize` output; unseen
        strings are dropped."""
        vocab = self.feature_vocab
        return [
            np.array([vocab[f] for f in position if f in vocab], dtype=np.intp)
            for position in features
        ]

    def emissions_from_ids(self, ids: list[np.ndarray]) -> np.ndarray:
        """(T, K) matrix: row t sums the emit rows of position t's ids."""
        return self._emissions(_pack([ids]))[0]

    def _emissions(self, batch: _Batch) -> np.ndarray:
        """(B, T, K) emissions of a packed batch, zero past each sentence's
        end: one gather of the ids' emit rows, one scatter that adds them in
        id order, as summing each position's rows in sequence does."""
        e = np.zeros((batch.valid.size, len(self.tags)))
        _scatter_rows(e, batch.slots, np.take(self.emit, batch.ids, axis=0))
        return e.reshape(*batch.valid.shape, -1)

    def emission_scores(self, sentence: Sentence) -> np.ndarray:
        """(T, K) matrix of summed feature weights per position."""
        return self.emissions_from_ids(self.feature_ids(featurize(sentence, self.templates)))

    def score_tag_ids(self, emissions: np.ndarray, tag_ids: list[int]) -> float:
        """Path score with a pinned accumulation order (matters only for
        bitwise agreement between decoders and enumeration oracles)."""
        begin = self.begin.tolist()
        end = self.end.tolist()
        trans = self.trans.tolist()
        e = emissions.tolist()
        s = begin[tag_ids[0]] + e[0][tag_ids[0]]
        for t in range(1, len(tag_ids)):
            s = (s + trans[tag_ids[t - 1]][tag_ids[t]]) + e[t][tag_ids[t]]
        return s + end[tag_ids[-1]]

    def forward(self, emissions: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forward algorithm over a padded batch: (B, T, K) emissions and
        each sentence's length give the (B, T, K) table of log alpha (rows
        past a sentence's end are padding) and the (B,) log Z."""
        alpha = np.empty(emissions.shape)
        alpha[:, 0] = self.begin + emissions[:, 0]
        for t in range(1, emissions.shape[1]):
            alpha[:, t] = logsumexp(alpha[:, t - 1, :, None] + self.trans, axis=1) + emissions[:, t]
        last = alpha[np.arange(len(lengths)), lengths - 1]
        return alpha, logsumexp(last + self.end, axis=1)

    def log_partition(self, emissions: np.ndarray) -> float:
        """log Z of one sentence's (T, K) emissions."""
        return float(self.forward(emissions[None], np.array([len(emissions)]))[1][0])

    def batch_nll(self, ids: list[list[np.ndarray]], tag_ids: list[list[int]], grads=None) -> np.ndarray:
        """(B,) NLLs of the paths `tag_ids[b]` given per-position feature
        ids `ids[b]`, on one padded (B, T, K) lattice. With `grads`, a
        caller-owned (emit, trans, begin, end) tuple of arrays, also adds
        the exact gradient of every NLL into them, in the order one
        sentence after another, position after position, would."""
        batch = _pack(ids)
        n, width = batch.valid.shape
        rows = np.arange(n)
        last = batch.lengths - 1
        y = np.zeros(batch.valid.shape, dtype=np.intp)
        y[batch.valid] = np.concatenate(tag_ids)
        e = self._emissions(batch)
        alpha, log_z = self.forward(e, batch.lengths)

        # the path score as a running sum in `score_tag_ids`' order:
        # begin, e_0, trans_01, e_1, trans_12, ..., then end
        terms = np.empty((n, 2 * width))
        terms[:, 0] = self.begin[y[:, 0]]
        terms[:, 1::2] = np.take_along_axis(e, y[:, :, None], axis=2)[:, :, 0]
        terms[:, 2::2] = self.trans[y[:, :-1], y[:, 1:]]
        score = np.add.accumulate(terms, axis=1)[rows, 2 * last + 1] + self.end[y[rows, last]]
        nll = log_z - score
        if grads is None:
            return nll

        g_emit, g_trans, g_begin, g_end = grads
        n_tags = len(self.tags)
        beta = np.empty(alpha.shape)
        beta[:, -1] = self.end
        for t in range(width - 2, -1, -1):
            inner = logsumexp(self.trans + (e[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2)
            beta[:, t] = np.where((t >= last)[:, None], self.end, inner)

        node = np.exp(alpha + beta - log_z[:, None, None])  # (B, T, K) marginals
        expected = node.copy()
        expected[(*np.nonzero(batch.valid), y[batch.valid])] -= 1.0
        _scatter_rows(g_emit, batch.ids, np.take(expected.reshape(-1, n_tags), batch.slots, axis=0))
        _fold_into(g_begin, expected[:, 0])
        _fold_into(g_end, _interleave(node[rows, last], _minus_one_hots(y[rows, last], n_tags)))
        # (B, T-1, K, K) edge marginals; edge t joins positions t and t+1
        edge = np.exp(
            alpha[:, :-1, :, None]
            + self.trans
            + (e[:, 1:] + beta[:, 1:])[:, :, None, :]
            - log_z[:, None, None, None]
        )
        inside = batch.valid[:, 1:]
        steps = y[:, :-1][inside] * n_tags + y[:, 1:][inside]
        hits = _minus_one_hots(steps, n_tags * n_tags).reshape(-1, n_tags, n_tags)
        _fold_into(g_trans, _interleave(edge[inside], hits))
        return nll


class _Batch(NamedTuple):
    """A batch of sentences laid out on a padded (B, T) grid."""

    lengths: np.ndarray  # (B,)
    valid: np.ndarray  # (B, T) mask of real positions
    ids: np.ndarray  # every known feature id, in (sentence, position) order
    slots: np.ndarray  # each id's flat position in the (B, T) grid


def _pack(ids: list[list[np.ndarray]]) -> _Batch:
    lengths = np.array([len(sentence) for sentence in ids])
    valid = np.arange(lengths.max()) < lengths[:, None]
    rows = [row for sentence in ids for row in sentence]
    slots = np.repeat(np.flatnonzero(valid), [row.size for row in rows])
    return _Batch(lengths, valid, np.concatenate(rows), slots)


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray):
    """out[index[i]] += rows[i] for i in order. A 1-D `np.add.at` per
    column gives the same sums as a 2-D one, several times faster."""
    for k in range(out.shape[1]):
        np.add.at(out[:, k], index, rows[:, k])


def _fold_into(g: np.ndarray, terms: np.ndarray):
    """g += terms[0]; g += terms[1]; ... in that order. `accumulate` adds
    strictly in sequence; a reduction may sum pairwise instead."""
    g[...] = np.add.accumulate(np.concatenate([g[None], terms]), axis=0)[-1]


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[0], b[0], a[1], b[1], ... along the first axis."""
    return np.stack([a, b], axis=1).reshape(-1, *a.shape[1:])


def _minus_one_hots(index: np.ndarray, size: int) -> np.ndarray:
    """Rows of -1 at `index` and -0.0 elsewhere: adding one changes only
    the indexed entry (x + -0.0 is x for every x, signed zeros included)."""
    hits = np.full((len(index), size), -0.0)
    hits[np.arange(len(index)), index] = -1.0
    return hits


def sequence_prob(model: CrfModel, sentence: Sentence, labels: LabelSeq) -> float:
    """Exact probability exp(score - logZ) of one label sequence."""
    if len(labels) != len(sentence):
        raise ValueError(f"{len(labels)} labels for {len(sentence)} tokens")
    e = model.emission_scores(sentence)
    ids = [model.tag_id(l) for l in labels]
    return min(1.0, float(np.exp(model.score_tag_ids(e, ids) - model.log_partition(e))))


def kbest_decode(model: CrfModel, sentence: Sentence, k: int, gold: LabelSeq | None = None) -> CandidateSet:
    """The k highest-scoring sequences with exact probabilities.

    Ranked by descending score, ties by lexicographic tag-id order; fewer
    than k come back only when the lattice has fewer than k paths in total.

    After step t the beam holds up to k paths per end state: their scores
    (K, w), backpointers into step t-1's flattened (state, slot) grid, and
    the flat indices of all K*w survivors in lexicographic order of their
    paths. Each state's row of grown paths contains every survivor once as
    a prefix, so a stable sort of the row's scores with its columns in that
    order ranks by (-score, path). Rank keys make the pruning exact: a path
    cut from a state's beam has k survivors in that state that beat it, and
    extending both by the same tags adds the same numbers, which rounding
    cannot reorder. Rounding can make two different scores equal, though:
    with begin (1, 1 + 2**-52), end (1, -100), all else zero, T=2 and k=1,
    the beam returns (1, 0) where enumeration ranks (0, 0) first.
    Scores accumulate as `(s + trans) + e` in float64, the order
    `CrfModel.score_tag_ids` uses, so every score matches its enumerated
    path score to the bit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    e = model.emission_scores(sentence)
    n_tags = len(model.tags)
    tags = np.arange(n_tags)
    trans_in = model.trans.T[:, :, None]  # [y, prev, 1] = trans[prev, y]

    scores = (model.begin + e[0])[:, None]  # (K, 1): one path per state
    lex = tags  # flat survivor indices in lexicographic order of their paths
    backpointers = []
    for t in range(1, len(sentence)):
        grown = ((scores[None] + trans_in) + e[t][:, None, None]).reshape(n_tags, -1)
        # every row holds each survivor once; with the columns in lex order,
        # a stable sort on -score ranks by (-score, prefix), and the
        # position it returns is the prefix's rank
        prefix_rank = np.argsort(-grown[:, lex], axis=1, kind="stable")[:, :k]
        keep = lex[prefix_rank]
        scores = grown[tags[:, None], keep]
        # a new path is its prefix then y: the unique key (prefix rank, y)
        # orders the new survivors lexicographically
        lex = np.argsort(prefix_rank * n_tags + tags[:, None], axis=None)
        backpointers.append(keep)

    final = (scores + model.end[:, None]).reshape(-1)
    best = lex[np.argsort(-final[lex], kind="stable")[:k]]
    seqs = np.empty((best.size, len(sentence)), dtype=np.intp)
    at = best  # flat (state, slot) indices into the last step's beam
    for t in range(len(sentence) - 1, 0, -1):
        keep = backpointers[t - 1]
        seqs[:, t] = at // keep.shape[1]
        at = keep.reshape(-1)[at]
    seqs[:, 0] = at  # step 0 holds one path per state

    log_z = model.log_partition(e)
    candidates = []
    for score, seq in zip(final[best].tolist(), seqs.tolist()):
        prob = min(1.0, float(np.exp(score - log_z)))
        candidates.append(([model.labels[y] for y in seq], max(prob, 1e-300)))
    return CandidateSet(sentence.id, gold, candidates)


def crf_train(
    train: Dataset,
    templates: FeatureTemplateSet,
    *,
    epochs: int = 20,
    batch_size: int = 8,
    lr: float = 0.05,
    l2: float = 1e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    seed: int = 0,
    tags: tuple[str, ...] | None = None,
) -> CrfModel:
    """Minimize L2-regularized NLL with mini-batch Adam on exact gradients.

    Weights start at zero, so zero epochs yield the uniform model. The
    returned model records mean full-data NLL after each epoch in
    nll_history (the entry at index 0 is the pre-training NLL).
    """
    if len(train) == 0:
        raise ValueError("cannot train on an empty dataset")
    tags = tuple(tags) if tags is not None else ALL_TAGS
    n_tags = len(tags)
    feats_per_sent = [featurize(s, templates) for s in train.sentences]
    vocab = {f: i for i, f in enumerate(sorted({f for fs in feats_per_sent for pos in fs for f in pos}))}
    model = CrfModel(
        tags=tags,
        feature_vocab=vocab,
        templates=templates,
        emit=np.zeros((len(vocab), n_tags)),
        trans=np.zeros((n_tags, n_tags)),
        begin=np.zeros(n_tags),
        end=np.zeros(n_tags),
    )
    feat_ids = [model.feature_ids(fs) for fs in feats_per_sent]
    gold_ids = [[model.tag_id(l) for l in labels] for labels in train.gold]

    # Tensor wraps each array without copying, so Adam updates the model
    params = [
        Tensor(a, requires_grad=True)
        for a in (model.emit, model.trans, model.begin, model.end)
    ]
    opt = AdamState(params, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    model.nll_history.append(_mean_nll(model, feat_ids, gold_ids))
    rng = np.random.default_rng([seed, 17])
    for epoch in range(epochs):
        started = perf_counter()
        order = rng.permutation(len(train))
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            grads = tuple(np.zeros_like(p.data) for p in params)
            nlls = model.batch_nll([feat_ids[i] for i in batch], [gold_ids[i] for i in batch], grads)
            b = len(batch)
            batch_nll = sum(nlls.tolist()) / b
            if not np.isfinite(batch_nll):
                raise NerrankError(
                    f"non-finite training loss ({batch_nll}) at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            for p, g in zip(params, grads):
                p.grad = g / b + l2 * p.data
            opt.step()
        model.nll_history.append(_mean_nll(model, feat_ids, gold_ids))
        log.info(
            "CRF epoch %d/%d: mean NLL %.6f over %d sentences, %.2f s",
            epoch + 1,
            epochs,
            model.nll_history[-1],
            len(train),
            perf_counter() - started,
        )
    return model


def _mean_nll(model: CrfModel, feat_ids, gold_ids) -> float:
    """Mean NLL of the training set without gradients, NLL_CHUNK sentences
    per batch, summed in sentence order as a loop over sentences would."""
    nlls = []
    for start in range(0, len(gold_ids), NLL_CHUNK):
        chunk = slice(start, start + NLL_CHUNK)
        nlls.extend(model.batch_nll(feat_ids[chunk], gold_ids[chunk]).tolist())
    return sum(nlls) / len(gold_ids)


def save_crf(path, model: CrfModel, extra_meta: dict | None = None):
    """Write the model as a single .npz archive.

    Weight matrices go in as arrays; tags, the feature vocabulary (in id
    order), templates, and the NLL history ride along as one JSON entry.
    """
    meta = {
        "tags": list(model.tags),
        "features": [
            name
            for name, _ in sorted(model.feature_vocab.items(), key=lambda kv: kv[1])
        ],
        "templates": _templates_to_dict(model.templates),
        "nll_history": list(model.nll_history),
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(path, "wb") as f:
        np.savez(
            f,
            emit=model.emit,
            trans=model.trans,
            begin=model.begin,
            end=model.end,
            meta=np.array(json.dumps(meta)),
        )


def load_crf(path) -> CrfModel:
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in ("emit", "trans", "begin", "end")}
            meta = json.loads(str(archive["meta"]))
        templates = _templates_from_dict(meta["templates"])
        vocab = {name: i for i, name in enumerate(meta["features"])}
        return CrfModel(
            tags=tuple(meta["tags"]),
            feature_vocab=vocab,
            templates=templates,
            emit=arrays["emit"],
            trans=arrays["trans"],
            begin=arrays["begin"],
            end=arrays["end"],
            nll_history=list(meta["nll_history"]),
        )
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointMismatchError(
            f"{path} is not a readable baseline model checkpoint: {exc}"
        ) from exc


def _templates_to_dict(templates: FeatureTemplateSet) -> dict:
    d = asdict(templates)
    d["offsets"] = list(d["offsets"])
    return d


def _templates_from_dict(d: dict) -> FeatureTemplateSet:
    d = dict(d)
    d["offsets"] = tuple(d["offsets"])
    return FeatureTemplateSet(**d)
