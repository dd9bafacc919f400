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
- the path score is a running sum in its pinned order, begin[y_0] + e_0,
  then `(s + trans) + e` per step, then `+ end`, and NLLs are summed
  sentence by sentence in Python.
The reductions inside the recursions (over the previous tag forward, the
next tag backward) run along the same axes and lengths as one sentence's
would, so each sentence's numbers do not depend on its batch.

`kbest_decode` decodes a batch of sentences as one beam of up to k
survivors per sentence and state, held in numpy arrays with a leading
batch axis. Two things make its ranking equal brute-force enumeration's,
bit for bit: the survivors' lexicographic ranks make (-score, rank) a
total order that prunes nothing enumeration would rank higher, and each
step adds `(s + trans) + e` in float64, the pinned order of a path score.
`_kbest_chunk`'s docstring gives the argument and the one exception, a
tie that rounding creates.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from ..config import finite_number
from ..corpus import ENTITY_TYPES, BioLabel, Dataset, LabelSeq, Sentence
from ..errors import FILE_ERRORS, CheckpointMismatchError, NerrankError
from ..numerics import AdamState, Tensor
from ..numerics.optim import BLOCK
from .features import FeatureTemplateSet, featurize

log = logging.getLogger(__name__)

# sentences per batch of the no-gradient NLL pass. It bounds the (ids, K)
# gather of emit rows: on crf-wide's 200 training sentences (~760 ids each)
# one batch of all of them grew peak RSS by 10.7 MB and batches of 32 by
# 0.5 MB, and batches of 32 were also faster (0.027 s against 0.032 s)
NLL_CHUNK = 32
# sentences times k per batch of the k-best beam, whose arrays are
# (B, K, K*k): NLL_CHUNK sentences up to k = 20, fewer above, so a batch
# at large k holds no more than one at k = 20. A peak-memory guard only:
# decoding crf-wide's 80 test sentences at k = 1000, chunks of 32 peaked
# at 112 MB of numpy and Python allocations, one sentence at a time at
# 29 MB.
BEAM_SLOTS = NLL_CHUNK * 20

ALL_TAGS = tuple(sorted(["O"] + [f"{p}-{t}" for p in "BI" for t in ENTITY_TYPES]))


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis)


class InternedFeatures(NamedTuple):
    """Featurized sentences with each distinct feature string held once:
    `names` lists the strings in first-seen order, and `ids[s][t]` holds
    position t of sentence s as indices into `names`, in `featurize`
    order."""

    names: list[str]
    ids: list[list[np.ndarray]]


def intern_features(sentences, templates: FeatureTemplateSet) -> InternedFeatures:
    """`featurize` each sentence once and keep ids, not strings: one dict
    numbers the strings in first-seen order, and each sentence's strings
    are dropped once they are numbered."""
    index: dict[str, int] = {}
    number = index.setdefault
    ids = [
        [np.array([number(f, len(index)) for f in pos], dtype=np.intp) for pos in featurize(s, templates)]
        for s in sentences
    ]
    return InternedFeatures(list(index), ids)


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

    def interned_ids(self, features: InternedFeatures) -> list[list[np.ndarray]]:
        """Per sentence of `features` and position, this model's ids of the
        position's strings in `featurize` order, through one index from
        `features`' ids to this model's. Strings the model lacks are
        dropped."""
        get = self.feature_vocab.get
        index = np.array([get(name, -1) for name in features.names], dtype=np.intp)
        out = []
        for sentence in features.ids:
            rows = [index[row] for row in sentence]
            out.append([row[row >= 0] for row in rows])
        return out

    def _emissions(self, batch: _Batch) -> np.ndarray:
        """(B, T, K) emissions of a packed batch, zero past each sentence's
        end: one gather of the ids' emit rows, one scatter that adds them in
        id order, as summing each position's rows in sequence does."""
        e = np.zeros((batch.valid.size, len(self.tags)))
        _scatter_rows(e, batch.slots, np.take(self.emit, batch.ids, axis=0))
        return e.reshape(*batch.valid.shape, -1)

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

    # nothing in the package calls `emission_scores` or `log_partition`;
    # they stay because perfbench/tracer.py wraps both by name
    def emission_scores(self, sentence: Sentence) -> np.ndarray:
        """(T, K) matrix of summed feature weights per position."""
        return self._emissions(_pack(self.interned_ids(intern_features([sentence], self.templates))))[0]

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

        # the path score as a running sum in its pinned order:
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


def kbest_decode(model: CrfModel, ids: list[list[np.ndarray]], k: int) -> list[list[tuple[LabelSeq, float]]]:
    """Per sentence, given its per-position feature ids, the k
    highest-scoring label sequences with their exact probabilities.

    Ranked by descending score, ties by lexicographic tag-id order; fewer
    than k come back only when the lattice has fewer than k paths in total.
    Sentences are decoded NLL_CHUNK at a time (fewer when k exceeds 20,
    see BEAM_SLOTS), each chunk as one batched beam (`_kbest_chunk`); a
    sentence's candidates do not depend on the sentences decoded with it.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    size = max(1, min(NLL_CHUNK, BEAM_SLOTS // k))
    out = []
    for start in range(0, len(ids), size):
        out.extend(_kbest_chunk(model, ids[start : start + size], k))
    return out


def _kbest_chunk(model: CrfModel, ids: list[list[np.ndarray]], k: int) -> list[list[tuple[LabelSeq, float]]]:
    """The beam over a batch of sentences, sorted longest first so that the
    sentences still running at step t are a prefix of the batch.

    After step t the beam holds, per sentence, up to k paths per end
    state: their scores (K, w), backpointers into step t-1's flattened
    (state, slot) grid, and the flat indices of all K*w survivors in
    lexicographic order of their paths. The width w depends only on t, K
    and k, so every running sentence's beam has the same shape. Each
    state's row of grown paths contains every survivor once as a prefix,
    so a stable sort of the row's scores with its columns in that order
    ranks by (-score, path). Rank keys make the pruning exact: a path cut
    from a state's beam has k survivors in that state that beat it, and
    extending both by the same tags adds the same numbers, which rounding
    cannot reorder. Rounding can make two different scores equal, though:
    with begin (1, 1 + 2**-52), end (1, -100), all else zero, T=2 and k=1,
    the beam returns (1, 0) where enumeration ranks (0, 0) first.
    Scores accumulate in float64 as begin[y_0] + e_0, then
    `(s + trans) + e` per step, then `+ end`: the pinned order of a path
    score, so every score equals its path's score summed in that order,
    to the bit. Every operation acts on each sentence's rows alone, so a
    sentence's candidates are those it gets in a batch of one.
    """
    order = np.argsort([-len(sentence) for sentence in ids], kind="stable")
    batch = _pack([ids[i] for i in order])
    lengths = batch.lengths
    e = model._emissions(batch)  # (B, T, K)
    log_z = model.forward(e, lengths)[1]
    n_sent, width = batch.valid.shape
    n_tags = len(model.tags)
    tags = np.arange(n_tags)
    trans_in = model.trans.T[:, :, None]  # [y, prev, 1] = trans[prev, y]

    scores = (model.begin + e[:, 0])[:, :, None]  # (B, K, 1): one path per state
    # flat survivor indices in lexicographic order of their paths
    lex = np.broadcast_to(tags, (n_sent, n_tags))
    backpointers = []
    best = np.zeros((n_sent, k), dtype=np.intp)  # each sentence's top flat indices
    top = np.full((n_sent, k), -np.inf)  # and their final scores
    found = np.zeros(n_sent, dtype=np.intp)  # how many it has
    running = n_sent
    for t in range(1, width + 1):
        n = int(np.count_nonzero(lengths > t))
        if n < running:  # sentences of length t end here
            final = (scores[n:] + model.end[:, None]).reshape(running - n, -1)
            rank = np.argsort(-np.take_along_axis(final, lex[n:], axis=1), axis=1, kind="stable")[:, :k]
            picked = np.take_along_axis(lex[n:], rank, axis=1)
            found[n:running] = picked.shape[1]
            best[n:running, : picked.shape[1]] = picked
            top[n:running, : picked.shape[1]] = np.take_along_axis(final, picked, axis=1)
        if n == 0:
            break
        scores, lex, running = scores[:n], lex[:n], n
        grown = ((scores[:, None] + trans_in) + e[:n, t, :, None, None]).reshape(n, n_tags, -1)
        # every row holds each survivor once; with the columns in lex order,
        # a stable sort on -score ranks by (-score, prefix), and the
        # position it returns is the prefix's rank
        prefix_rank = np.argsort(
            -np.take_along_axis(grown, lex[:, None, :], axis=2), axis=2, kind="stable"
        )[:, :, :k]
        keep = np.take_along_axis(lex[:, None, :], prefix_rank, axis=2)
        scores = np.take_along_axis(grown, keep, axis=2)
        # a new path is its prefix then y: the unique key (prefix rank, y)
        # orders the new survivors lexicographically
        lex = np.argsort((prefix_rank * n_tags + tags[:, None]).reshape(n, -1), axis=1)
        backpointers.append(keep)

    seqs = np.empty((n_sent, k, width), dtype=np.intp)
    at = best  # flat (state, slot) indices into each sentence's last beam
    for t in range(width - 1, 0, -1):
        keep = backpointers[t - 1]  # the sentences longer than t
        n = len(keep)
        seqs[:n, :, t] = at[:n] // keep.shape[2]
        at[:n] = np.take_along_axis(keep.reshape(n, -1), at[:n], axis=1)
    seqs[:, :, 0] = at  # step 0 holds one path per state
    probs = np.maximum(np.minimum(1.0, np.exp(top - log_z[:, None])), 1e-300)

    out = [None] * n_sent
    for j, i in enumerate(order.tolist()):
        rows = zip(seqs[j, : found[j], : lengths[j]].tolist(), probs[j, : found[j]].tolist())
        out[i] = [([model.labels[y] for y in seq], prob) for seq, prob in rows]
    return out


def crf_train(
    train: Dataset,
    templates: FeatureTemplateSet,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    l2: float,
    seed: int,
    features: InternedFeatures | None = None,
) -> CrfModel:
    """Minimize L2-regularized NLL with mini-batch Adam on exact gradients.

    The other keyword settings are those of `RunConfig.crf_options()`,
    which holds their defaults. `features`, when given, is
    `intern_features` of the training sentences, in order, or of a corpus
    that holds them (`ids` then lists the training sentences' rows alone),
    so a caller that trains on overlapping sets featurizes each sentence
    once. The feature vocabulary is the sorted set of the strings the
    training sentences carry, and one index maps their interned ids to it.
    Weights start at zero, so zero epochs yield the uniform model. The
    returned model records mean full-data NLL after each epoch in
    nll_history (the entry at index 0 is the pre-training NLL).

    Each batch's gradient, averaged and with `l2 * p` added BLOCK values
    at a time, goes to `AdamState`: training holds no array of the emit
    table's size beyond the table, its gradient and Adam's two moments.
    """
    if len(train) == 0:
        raise ValueError("cannot train on an empty dataset")
    if features is None:
        features = intern_features(train.sentences, templates)
    elif len(features.ids) != len(train):
        raise ValueError(f"{len(features.ids)} feature lists for {len(train)} sentences")
    n_tags = len(ALL_TAGS)
    used = np.zeros(len(features.names), dtype=bool)
    used[np.concatenate([row for sentence in features.ids for row in sentence])] = True
    names = sorted(map(features.names.__getitem__, np.flatnonzero(used).tolist()))
    vocab = {name: i for i, name in enumerate(names)}
    model = CrfModel(
        tags=ALL_TAGS,
        feature_vocab=vocab,
        templates=templates,
        emit=np.zeros((len(vocab), n_tags)),
        trans=np.zeros((n_tags, n_tags)),
        begin=np.zeros(n_tags),
        end=np.zeros(n_tags),
    )
    feat_ids = model.interned_ids(features)
    del features  # frees the corpus ids when this call interned them
    gold_ids = [[model.tag_id(l) for l in labels] for labels in train.gold]

    # Tensor wraps each array without copying, so Adam updates the model
    params = [Tensor(a) for a in (model.emit, model.trans, model.begin, model.end)]
    opt = AdamState(params, lr=lr, beta1=0.9, beta2=0.999, eps=1e-8)
    # every batch sums its gradient into `grads` from zero
    grads = tuple(np.empty_like(p.data) for p in params)
    model.nll_history.append(_mean_nll(model, feat_ids, gold_ids))
    rng = np.random.default_rng([seed, 17])
    for epoch in range(epochs):
        started = perf_counter()
        order = rng.permutation(len(train))
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            for g in grads:
                g.fill(0.0)
            nlls = model.batch_nll([feat_ids[i] for i in batch], [gold_ids[i] for i in batch], grads)
            b = len(batch)
            batch_nll = sum(nlls.tolist()) / b
            if not np.isfinite(batch_nll):
                raise NerrankError(
                    f"non-finite training loss ({batch_nll}) at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            for p, g in zip(params, grads):
                g /= b
                flat_g, flat_p = g.reshape(-1), p.data.reshape(-1)  # views: both are C-ordered
                for at in range(0, g.size, BLOCK):
                    flat_g[at : at + BLOCK] += flat_p[at : at + BLOCK] * l2
                p.grad = g
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
    order), templates, and the NLL history ride along as one JSON entry,
    stored as its UTF-8 bytes (a uint8 array).
    """
    meta = {
        "tags": list(model.tags),
        "features": [
            name
            for name, _ in sorted(model.feature_vocab.items(), key=lambda kv: kv[1])
        ],
        # the switches and the cluster map as they are; `asdict` would
        # deep-copy the map, one call per entry
        "templates": vars(model.templates),
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
            meta=np.frombuffer(json.dumps(meta, ensure_ascii=False).encode(), np.uint8),
        )


def load_crf(path) -> CrfModel:
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in ("emit", "trans", "begin", "end")}
            raw = archive["meta"]
            if raw.dtype != np.uint8:
                raise ValueError(f"its meta is {raw.dtype}, not UTF-8 bytes (an older format: retrain it)")
            meta = json.loads(raw.tobytes().decode())
        if not all(type(name) is str for name in meta["features"]):
            raise ValueError("feature names are not all strings")
        history = meta["nll_history"]
        if type(history) is not list:
            raise ValueError(f"nll_history: expected a JSON array, got {history!r}")
        for value in history:
            if not finite_number(value):
                raise ValueError(f"nll_history: expected a finite number, got {value!r}")
        return CrfModel(
            tags=tuple(meta["tags"]),
            feature_vocab={name: i for i, name in enumerate(meta["features"])},
            templates=FeatureTemplateSet(
                **{**meta["templates"], "offsets": tuple(meta["templates"]["offsets"])}
            ),
            emit=arrays["emit"],
            trans=arrays["trans"],
            begin=arrays["begin"],
            end=arrays["end"],
            nll_history=history,
        )
    except FILE_ERRORS:
        raise
    except Exception as exc:
        raise CheckpointMismatchError(
            f"{path} is not a readable baseline model checkpoint: {exc}"
        ) from exc

