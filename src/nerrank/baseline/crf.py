"""Linear-chain CRF with exact probabilities and exact k-best decoding.

Scores decompose as begin[y_0] + sum_t emit(x_t, y_t) + trans[y_{t-1}, y_t]
+ end[y_T]. `CrfModel` holds each computation once: the emission sum over
feature ids, the path score, and the forward algorithm in log space, which
gives both the partition function and the alpha table that training's
forward-backward pass reuses. `crf_train` builds a zero-weight model and
trains it in place through those methods (exact NLL gradients, mini-batch
Adam).

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
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from ..corpus import ENTITY_TYPES, BioLabel, Dataset, LabelSeq, Sentence
from ..errors import CheckpointMismatchError, NerrankError
from ..numerics import AdamState, Tensor
from .features import FeatureTemplateSet, featurize
from .nbest import CandidateSet

ALL_TAGS = tuple(sorted(["O"] + [f"{p}-{t}" for p in "BI" for t in ENTITY_TYPES]))


def logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis) if axis is not None else out.reshape(())


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
        e = np.zeros((len(ids), len(self.tags)))
        for t, row_ids in enumerate(ids):
            if row_ids.size:
                e[t] = self.emit[row_ids].sum(axis=0)
        return e

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

    def forward(self, emissions: np.ndarray) -> tuple[np.ndarray, float]:
        """Forward algorithm: the (T, K) table of log alpha and log Z."""
        alpha = np.zeros(emissions.shape)
        alpha[0] = self.begin + emissions[0]
        for t in range(1, emissions.shape[0]):
            alpha[t] = logsumexp(alpha[t - 1][:, None] + self.trans, axis=0) + emissions[t]
        return alpha, float(logsumexp(alpha[-1] + self.end))

    def log_partition(self, emissions: np.ndarray) -> float:
        return self.forward(emissions)[1]

    def sentence_nll(self, ids: list[np.ndarray], tag_ids: list[int], grads=None) -> float:
        """NLL of the path `tag_ids` given per-position feature ids. With
        `grads`, a caller-owned (emit, trans, begin, end) tuple of arrays,
        also adds the exact gradient of that NLL into them."""
        e = self.emissions_from_ids(ids)
        alpha, log_z = self.forward(e)
        nll = log_z - self.score_tag_ids(e, tag_ids)
        if grads is None:
            return nll
        g_emit, g_trans, g_begin, g_end = grads
        y = tag_ids
        t_count = len(ids)
        beta = np.zeros(alpha.shape)
        beta[-1] = self.end
        for t in range(t_count - 2, -1, -1):
            beta[t] = logsumexp(self.trans + (e[t + 1] + beta[t + 1])[None, :], axis=1)

        node = np.exp(alpha + beta - log_z)  # (T, K) marginals
        expected = node.copy()
        for t in range(t_count):
            expected[t, y[t]] -= 1.0
            np.add.at(g_emit, ids[t], expected[t])
        g_begin += expected[0]
        g_end += node[-1]
        g_end[y[-1]] -= 1.0
        for t in range(1, t_count):
            edge = np.exp(alpha[t - 1][:, None] + self.trans + (e[t] + beta[t])[None, :] - log_z)
            g_trans += edge
            g_trans[y[t - 1], y[t]] -= 1.0
        return nll


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


def viterbi_decode(model: CrfModel, sentence: Sentence) -> LabelSeq:
    return kbest_decode(model, sentence, 1).candidates[0][0]


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
        order = rng.permutation(len(train))
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            grads = tuple(np.zeros_like(p.data) for p in params)
            batch_nll = sum(model.sentence_nll(feat_ids[i], gold_ids[i], grads) for i in batch)
            b = len(batch)
            batch_nll /= b
            if not np.isfinite(batch_nll):
                raise NerrankError(
                    f"non-finite training loss ({batch_nll}) at epoch {epoch}, "
                    f"batch starting at {start}"
                )
            for p, g in zip(params, grads):
                p.grad = g / b + l2 * p.data
            opt.step()
        model.nll_history.append(_mean_nll(model, feat_ids, gold_ids))
    return model


def _mean_nll(model: CrfModel, feat_ids, gold_ids) -> float:
    return sum(model.sentence_nll(ids, y) for ids, y in zip(feat_ids, gold_ids)) / len(gold_ids)


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
