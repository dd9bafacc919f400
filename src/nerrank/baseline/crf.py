"""Linear-chain CRF with exact probabilities and exact k-best decoding.

Scores decompose as begin[y_0] + sum_t emit(x_t, y_t) + trans[y_{t-1}, y_t]
+ end[y_T]. `CrfModel` holds each computation once: the emission sum over
feature ids, the path score, and the forward algorithm in log space, which
gives both the partition function and the alpha table that training's
forward-backward pass reuses. `crf_train` builds a zero-weight model and
trains it in place through those methods (exact NLL gradients, mini-batch
Adam). k-best decoding keeps a beam of k exact survivors per state (a total
order with lexicographic tie-breaking makes the pruning argument exact, so
ranked output matches brute-force enumeration bit for bit).
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
        for tag in self.tags:
            BioLabel.parse(tag)
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

    Ties broken by lexicographic tag-id order; fewer than k come back only
    when the lattice has fewer than k paths in total.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    emissions = model.emission_scores(sentence)
    n_tags = len(model.tags)
    t_count = len(sentence)
    begin = model.begin.tolist()
    end = model.end.tolist()
    trans = model.trans.tolist()
    e = emissions.tolist()

    # beams[y]: up to k (score, tag_id_tuple) survivors ending in state y
    beams = [[(begin[y] + e[0][y], (y,))] for y in range(n_tags)]
    for t in range(1, t_count):
        new_beams = []
        for y in range(n_tags):
            ey = e[t][y]
            grown = [
                ((s + trans[prev][y]) + ey, seq + (y,))
                for prev in range(n_tags)
                for s, seq in beams[prev]
            ]
            grown.sort(key=lambda item: (-item[0], item[1]))
            new_beams.append(grown[:k])
        beams = new_beams

    final = [(s + end[y], seq) for y in range(n_tags) for s, seq in beams[y]]
    final.sort(key=lambda item: (-item[0], item[1]))
    final = final[:k]

    log_z = model.log_partition(emissions)
    candidates = []
    for score, seq in final:
        prob = min(1.0, float(np.exp(score - log_z)))
        labels = [BioLabel.parse(model.tags[y]) for y in seq]
        candidates.append((labels, max(prob, 1e-300)))
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
