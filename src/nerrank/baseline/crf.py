"""Linear-chain CRF with exact probabilities and exact k-best decoding.

Scores decompose as begin[y_0] + sum_t emit(x_t, y_t) + trans[y_{t-1}, y_t]
+ end[y_T]. `CrfModel` holds each computation once: the emission sum over
feature ids, the path score, and the forward algorithm in log space, which
gives both the partition function and the alpha table that training's
forward-backward pass reuses. `crf_train` builds a zero-weight model and
trains it in place through those methods (exact NLL gradients, mini-batch
Adam).

Sentences reach the model as ids, not strings. `intern_features`
featurizes them once and numbers each distinct string in a dict; each
sentence is then one `SentenceIds`, a flat int32 array of its ids and one
count per position. A model's vocabulary, `feature_vocab`, is the tuple
of its feature strings in id order, as `crf.npz` stores it (`crf_train`
numbers the strings it sees in sorted order), and
`CrfModel.interned_ids` maps a corpus's ids to the model's through one
index, built by looking the model's strings up in the corpus's dict.

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
- the emit gradient is one such scatter in (sentence, position, id) order,
  into a training batch's compact rows (`RowGrad`: the batch's sorted
  distinct ids and one row per id, from 0.0), whose sums are the table
  rows' to the bit;
- both scatters gather at most GATHER rows per chunk; `np.add.at` adds in
  index order across the chunks as within one;
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
from dataclasses import dataclass, field, fields
from itertools import compress
from typing import NamedTuple

import numpy as np

from ..config import decode
from ..corpus import ENTITY_TYPES, BioLabel, Dataset, LabelSeq, Sentence, replacing
from ..errors import NerrankError, checkpoint_errors
from ..numerics import AdamState, RowGrad, Tensor, write_npz
from ..trace import stage
from .features import FeatureTemplateSet, featurize

# feature ids whose (n, K) rows one gather takes, in the emissions and the
# emit gradient: a batch's gather costs at most GATHER * K * 8 bytes
# (295 KB at K = 9), however many sentences the batch holds
GATHER = 4096
# the stream of `crf_train`'s batch order, drawn as default_rng([seed, it])
SHUFFLE_STREAM = 17
# sentences per batch of the no-gradient NLL pass. It bounds the batch's
# (B, T, K) lattice arrays and its id and slot lists (16 bytes per id);
# GATHER bounds its gather of emit rows. Measured before GATHER, on
# crf-wide's 200 training sentences (~760 ids each): one batch of all of
# them grew peak RSS by 10.7 MB and batches of 32 by 0.5 MB, and batches
# of 32 were also faster (0.027 s against 0.032 s)
NLL_CHUNK = 32
# sentences times k per batch of the k-best beam, whose arrays are
# (B, K, K*k): NLL_CHUNK sentences up to k = 20, fewer above, so a batch
# at large k holds no more than one at k = 20 (its gather of emit rows is
# GATHER-bounded whatever the batch). A peak-memory guard only: decoding
# crf-wide's 80 test sentences at k = 1000, chunks of 32 peaked at 112 MB
# of numpy and Python allocations, one sentence at a time at 29 MB.
BEAM_SLOTS = NLL_CHUNK * 20

ALL_TAGS = tuple(sorted(["O"] + [f"{p}-{t}" for p in "BI" for t in ENTITY_TYPES]))


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis)


class SentenceIds(NamedTuple):
    """One sentence's feature ids: `ids` holds every position's ids, in
    position order and `featurize` order within a position, and
    `counts[t]` how many of them belong to position t."""

    ids: np.ndarray  # int32
    counts: np.ndarray  # int32, one per position


class InternedFeatures(NamedTuple):
    """Featurized sentences with each distinct feature string held once:
    `names` numbers the strings in first-seen order, and `ids[s]` holds
    sentence s as indices into it."""

    names: dict[str, int]
    ids: list[SentenceIds]


def intern_features(sentences, templates: FeatureTemplateSet) -> InternedFeatures:
    """`featurize` each sentence once and keep ids, not strings: one dict
    numbers the strings in first-seen order, and each sentence's strings
    are dropped once they are numbered."""
    names: dict[str, int] = {}
    number = names.setdefault
    ids = []
    for sentence in sentences:
        positions = featurize(sentence, templates)
        flat = [number(f, len(names)) for position in positions for f in position]
        counts = [len(position) for position in positions]
        ids.append(SentenceIds(np.array(flat, dtype=np.int32), np.array(counts, dtype=np.int32)))
    return InternedFeatures(names, ids)


@dataclass
class CrfModel:
    tags: tuple[str, ...]
    feature_vocab: tuple[str, ...]  # feature strings in id order
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
        if len(set(self.feature_vocab)) != f:
            raise ValueError("duplicate feature strings")

    def tag_id(self, label: BioLabel) -> int:
        text = str(label)
        if text not in self._tag_index:
            raise ValueError(f"label {text} is not in this model's tag set")
        return self._tag_index[text]

    def interned_ids(self, features: InternedFeatures) -> list[SentenceIds]:
        """Each sentence of `features` in this model's ids, through one
        index from `features`' ids to this model's: the model's strings are
        looked up in `features.names` once. Strings the model lacks are
        dropped; the others keep their order."""
        get = features.names.get
        at = np.fromiter((get(name, -1) for name in self.feature_vocab), np.intp, len(self.feature_vocab))
        known = at >= 0
        index = np.full(len(features.names), -1, dtype=np.int32)
        index[at[known]] = np.flatnonzero(known)
        out = []
        for sentence in features.ids:
            ids = index[sentence.ids]
            kept = ids >= 0
            if kept.all():
                out.append(SentenceIds(ids, sentence.counts))
            else:
                n = len(sentence.counts)
                position = np.repeat(np.arange(n), sentence.counts)
                counts = np.bincount(position[kept], minlength=n).astype(np.int32)
                out.append(SentenceIds(ids[kept], counts))
        return out

    def _emissions(self, batch: _Batch) -> np.ndarray:
        """(B, T, K) emissions of a packed batch, zero past each sentence's
        end: the ids' emit rows gathered and added in id order, as summing
        each position's rows in sequence does."""
        e = np.zeros((batch.valid.size, len(self.tags)))
        _gather_add(e, batch.slots, self.emit, batch.ids)
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

    def batch_nll(self, ids: list[SentenceIds], tag_ids: list[list[int]], grads=None) -> np.ndarray:
        """(B,) NLLs of the paths `tag_ids[b]` given the feature ids
        `ids[b]`, on one padded (B, T, K) lattice. With `grads`, a
        caller-owned (emit, trans, begin, end) tuple, also adds the exact
        gradient of every NLL into them, in the order one sentence after
        another, position after position, would. The emit entry is a
        `RowGrad` whose rows hold every id of the batch: the emit gradient
        is added into its `values`, row i standing for emit row `rows[i]`;
        the others are arrays of their tables' shapes."""
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
        at = np.searchsorted(g_emit.rows, batch.ids)
        _gather_add(g_emit.values, at, expected.reshape(-1, n_tags), batch.slots)
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


def _pack(ids: list[SentenceIds]) -> _Batch:
    lengths = np.array([len(sentence.counts) for sentence in ids])
    valid = np.arange(lengths.max()) < lengths[:, None]
    slots = np.repeat(np.flatnonzero(valid), np.concatenate([sentence.counts for sentence in ids]))
    return _Batch(lengths, valid, np.concatenate([sentence.ids for sentence in ids]), slots)


def _gather_add(out: np.ndarray, index: np.ndarray, source: np.ndarray, rows: np.ndarray):
    """out[index[i]] += source[rows[i]] for i in order, gathering at most
    GATHER rows of `source` at a time. A 1-D `np.add.at` per column gives
    the same sums as a 2-D one, several times faster."""
    for start in range(0, len(index), GATHER):
        chunk = slice(start, start + GATHER)
        gathered = np.take(source, rows[chunk], axis=0)
        for k in range(out.shape[1]):
            np.add.at(out[:, k], index[chunk], gathered[:, k])


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


def kbest_decode(model: CrfModel, ids: list[SentenceIds], k: int) -> list[list[tuple[LabelSeq, float]]]:
    """Per sentence, given its feature ids, the k
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


def _kbest_chunk(model: CrfModel, ids: list[SentenceIds], k: int) -> list[list[tuple[LabelSeq, float]]]:
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
    order = np.argsort([-len(sentence.counts) for sentence in ids], kind="stable")
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

    Each batch's gradient of each table is a `RowGrad`, which
    `AdamState.step` averages and adds `l2 * p` to one block at a time:
    for emit, the batch's sorted distinct feature ids and one row per id;
    for trans, begin and end, every row. So training holds no array of
    the emit table's size beyond the table and Adam's two moments, and its
    weights are those of a dense gradient, to the bit.
    """
    if len(train) == 0:
        raise ValueError("cannot train on an empty dataset")
    if features is None:
        features = intern_features(train.sentences, templates)
    elif len(features.ids) != len(train):
        raise ValueError(f"{len(features.ids)} feature lists for {len(train)} sentences")
    n_tags = len(ALL_TAGS)
    used = np.zeros(len(features.names), dtype=bool)
    used[np.concatenate([sentence.ids for sentence in features.ids])] = True
    names = tuple(sorted(compress(features.names, used.tolist())))
    model = CrfModel(
        tags=ALL_TAGS,
        feature_vocab=names,
        templates=templates,
        emit=np.zeros((len(names), n_tags)),
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
    every_row = [np.arange(len(p.data)) for p in params[1:]]
    model.nll_history.append(_mean_nll(model, feat_ids, gold_ids))
    rng = np.random.default_rng([seed, SHUFFLE_STREAM])
    for epoch in range(1, epochs + 1):
        with stage(f"CRF epoch {epoch}/{epochs}", sentences=len(train)) as counts:
            order = rng.permutation(len(train))
            for batch_no, start in enumerate(range(0, len(order), batch_size), 1):
                batch = order[start : start + batch_size]
                batch_ids = [feat_ids[i] for i in batch]
                b = len(batch)
                rows = np.sort(np.concatenate([sentence.ids for sentence in batch_ids]))
                # distinct ids (np.unique would import numpy.ma on first use),
                # as intp: `RowGrad.block` searches them for Python ints, which
                # would cast an int32 array on every search
                rows = rows[np.flatnonzero(np.diff(rows, prepend=-1))].astype(np.intp)
                for p, at in zip(params, [rows, *every_row]):
                    p.grad = RowGrad(at, np.zeros((len(at), *p.data.shape[1:])), b, l2)
                grads = (params[0].grad, *(p.grad.values for p in params[1:]))
                nlls = model.batch_nll(batch_ids, [gold_ids[i] for i in batch], grads)
                batch_nll = sum(nlls.tolist()) / b
                if not np.isfinite(batch_nll):
                    raise NerrankError(
                        f"non-finite training loss ({batch_nll}) in CRF epoch {epoch}/{epochs}, "
                        f"batch {batch_no}"
                    )
                opt.step()
            model.nll_history.append(_mean_nll(model, feat_ids, gold_ids))
            counts["mean_nll"] = model.nll_history[-1]
    return model


def _mean_nll(model: CrfModel, feat_ids, gold_ids) -> float:
    """Mean NLL of the training set without gradients, NLL_CHUNK sentences
    per batch, summed in sentence order as a loop over sentences would."""
    nlls = []
    for start in range(0, len(gold_ids), NLL_CHUNK):
        chunk = slice(start, start + NLL_CHUNK)
        nlls.extend(model.batch_nll(feat_ids[chunk], gold_ids[chunk]).tolist())
    return sum(nlls) / len(gold_ids)


@dataclass(frozen=True)
class CrfMeta:
    """What a checkpoint's `meta` entry declares beside the weight arrays.
    The writer's provenance keys sit beside these at its top level."""

    tags: tuple[str, ...]
    features: tuple[str, ...]
    templates: FeatureTemplateSet
    nll_history: tuple[float, ...]


def save_crf(path, model: CrfModel, extra_meta: dict | None = None):
    """Write the model as a single .npz archive (`write_npz`), replacing
    the file whole.

    Weight matrices go in as arrays; the CrfMeta fields (the feature
    vocabulary in id order) and `extra_meta` ride along as one JSON
    object, stored as its UTF-8 bytes (a uint8 array). Writing holds no
    copy of the weights, and the meta's bytes once.
    """
    fixed = CrfMeta(model.tags, model.feature_vocab, model.templates, tuple(model.nll_history))
    meta = {f.name: getattr(fixed, f.name) for f in fields(CrfMeta)}
    # the switches and the cluster map as they are; `asdict` would
    # deep-copy the map, one call per entry
    meta["templates"] = vars(model.templates)
    meta.update(extra_meta or {})
    # the bytes of json.dumps(meta, ensure_ascii=False), encoded a piece at
    # a time into one buffer: json.dumps holds every piece at once, several
    # times the size of the bytes (4.9 MB for 0.85 MB of meta)
    text = bytearray()
    for piece in json.JSONEncoder(ensure_ascii=False).iterencode(meta):
        text += piece.encode()
    arrays = {
        "emit": model.emit,
        "trans": model.trans,
        "begin": model.begin,
        "end": model.end,
        "meta": np.frombuffer(text, np.uint8),
    }
    with replacing(path, binary=True) as fh:
        write_npz(fh, arrays)


def load_crf(path) -> CrfModel:
    """Read a checkpoint written by save_crf, under `checkpoint_errors`: a
    missing or unreadable file exits 2, a malformed one 4. The `meta` entry
    is decoded as a CrfMeta; its other top-level keys are not read."""
    with checkpoint_errors(path, "baseline model checkpoint"):
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in ("emit", "trans", "begin", "end")}
            raw = archive["meta"]
        if raw.dtype != np.uint8:
            raise ValueError(f"its meta is {raw.dtype}, not UTF-8 bytes (an older format: retrain it)")
        stored = decode(dict, json.loads(raw.tobytes().decode()))
        meta = decode(CrfMeta, {f.name: stored[f.name] for f in fields(CrfMeta) if f.name in stored})
        return CrfModel(
            tags=meta.tags,
            feature_vocab=meta.features,
            templates=meta.templates,
            nll_history=list(meta.nll_history),
            **arrays,
        )
