"""Reranker training and decoding: example construction from n-best lists,
the MSE + L2 objective, mini-batch Adam with per-epoch model selection,
mixture decoding, and the interpolation-weight grid search.

The final selection rule mixes both systems per candidate,

    chosen = argmax_i  alpha * s(C_i) + (1 - alpha) * p(L_i),

where s is the neural score of the collapsed pattern and p the baseline's
sequence probability; alpha is tuned by exhaustive search over the 201-point
grid {0, 0.005, ..., 1.0} against dev chunk F1. The rule takes one
candidate set and a whole array of alphas, so the search takes each set's
picks at all 201 grid points in one expression. The dev corpus derives its
patterns and span counts on the first evaluation; later epochs reuse them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .baseline.nbest import NBestCorpus
from .collapse import CollapsedSequence, collapsed_to_labels, collapsed_token_strings
from .config import ALPHA_GRID, META_FILE, WEIGHTS_FILE, TrainConfig, check_alpha, decode
from .corpus import LabelSeq, replacing
from .errors import ConfigError, NerrankError, checkpoint_errors
from .evaluation import PrfCounts
from .numerics import AdamState, Tensor, add, backward, l2_penalty, mse, no_tape, write_npz
from .reranker import PatternScorer, Vocab, build_vocab
from .trace import stage

SHUFFLE_STREAM = 23
SCORE_ITEMS = 512


@dataclass(frozen=True)
class RerankExample:
    """One candidate as a training instance: its collapsed pattern and the
    tag-accuracy regression target."""

    collapsed: CollapsedSequence
    target: float

    def __post_init__(self):
        if not 0.0 <= self.target <= 1.0:
            raise NerrankError(f"target must be in [0, 1]: {self.target}")

    @cached_property
    def tokens(self) -> list[str]:
        return collapsed_token_strings(self.collapsed)


@dataclass(frozen=True)
class EpochEval:
    """Dev-set result after one epoch (epoch 0 = the initialized model)."""

    epoch: int
    alpha: float
    dev_f1: float


@dataclass(frozen=True)
class BundleMeta:
    """What a bundle's meta.json declares beside its weights."""

    provenance: dict
    alpha: float
    char_pad: int
    config: TrainConfig
    vocab: Vocab
    history: tuple[EpochEval, ...]


@dataclass(frozen=True)
class AlphaSearchResult:
    alpha: float
    f1: float
    points: int


@dataclass
class RerankerBundle:
    """A trained scorer with its chosen interpolation weight."""

    scorer: PatternScorer
    alpha: float
    config: TrainConfig
    history: list[EpochEval]

    def __post_init__(self):
        check_alpha(self.alpha)


# ---------------------------------------------------------------------------
# dataset construction


def make_examples(nbest: NBestCorpus) -> list[RerankExample]:
    """One example per candidate; the target is the candidate's per-token
    label accuracy against gold (both sides normalized)."""
    return [
        RerankExample(collapsed=seq, target=target)
        for row, accuracy in zip(nbest.collapsed, nbest.accuracy)
        for seq, target in zip(row, accuracy)
    ]


# ---------------------------------------------------------------------------
# objective


def batch_loss(scorer: PatternScorer, batch: list[RerankExample], l2: float) -> Tensor:
    """Mean squared error over the batch, scored in training mode (with
    dropout), plus (l2/2) * ||params||^2."""
    if not batch:
        raise NerrankError("cannot compute the loss of an empty batch")
    scores = scorer.score_batch([ex.tokens for ex in batch], train=True)
    loss = mse(scores, np.array([[ex.target] for ex in batch]))
    if l2 > 0.0:
        loss = add(loss, l2_penalty([p for _, p in scorer.trainable()], l2))
    return loss


# ---------------------------------------------------------------------------
# scoring and selection


def score_sets(scorer: PatternScorer, nbest: NBestCorpus) -> list[list[float]]:
    """Evaluation-mode scores for every candidate in the corpus, one list
    per sentence in `cs.candidates` order.

    Each distinct collapsed pattern (`NBestCorpus.patterns`) is scored once;
    duplicates (very common after collapsing) reuse the cached value. The
    distinct patterns are sorted by (length, tokens) and packed greedily
    into chunks of at most `SCORE_ITEMS` items (a longer pattern is a chunk
    of its own), so a chunk's arrays are bounded by the budget, runs that
    share a chunk have similar lengths, and which patterns share a chunk
    depends only on the set of patterns: the scores do not depend on the
    order of the sentences. No `backward` follows, so the chunks are
    scored under `no_tape` and keep no graph.
    """
    with stage("score_sets") as counts:
        keys = nbest.patterns
        order = sorted({key for row in keys for key in row}, key=lambda k: (len(k), k))
        chunks: list[list[tuple[str, ...]]] = []
        items: list[int] = []  # per chunk
        for key in order:
            if not chunks or items[-1] + len(key) > SCORE_ITEMS:
                chunks.append([])
                items.append(0)
            chunks[-1].append(key)
            items[-1] += len(key)
        counts.update(
            candidates=sum(map(len, keys)),
            distinct=len(order),
            chunks=len(chunks),
            largest=max(items, default=0),
        )
        values: dict[tuple[str, ...], float] = {}
        for chunk in chunks:
            with no_tape():
                scores = scorer.score_batch([list(k) for k in chunk]).data[:, 0]
            outside = scores[~((scores > 0.0) & (scores < 1.0))]
            if outside.size:
                raise NerrankError(f"candidate score must be inside (0, 1): {outside[0]}")
            values.update(zip(chunk, scores.tolist()))
        return [[values[key] for key in row] for row in keys]


def mixture_select(scores, probs, alphas) -> np.ndarray:
    """The selection rule for one candidate set: for each alpha, the index
    of the candidate maximizing alpha*s + (1-alpha)*p; ties go to the lower
    index, i.e. the higher baseline rank."""
    s = np.asarray(scores, dtype=float)
    p = np.asarray(probs, dtype=float)
    a = np.asarray(alphas, dtype=float)
    if not s.size:
        raise NerrankError("cannot select from an empty candidate list")
    if s.shape != p.shape:
        raise NerrankError(f"{s.size} scores for {p.size} candidates")
    if not (np.isfinite(s).all() and np.isfinite(p).all()):
        raise NerrankError(f"scores {s.tolist()} and probabilities {p.tolist()} must be finite")
    outside = a[~((a >= 0.0) & (a <= 1.0))]
    if outside.size:
        raise ConfigError(f"alpha must be in [0, 1], got {outside[0]}")
    return np.argmax(a[:, None] * s + (1.0 - a)[:, None] * p, axis=1)


def alpha_search(nbest: NBestCorpus, scores: list[list[float]]) -> AlphaSearchResult:
    """Best interpolation weight by dev chunk F1 over the full 0.005 grid.

    Each set's picks for the whole grid come from one selection; the
    matched and predicted span counts of the picks (`span_match`) add up
    per grid point. Ties prefer the smallest alpha.
    """
    if len(scores) != len(nbest):
        raise NerrankError(f"{len(scores)} scored sentences vs {len(nbest)} candidate sets")
    grid = np.array(ALPHA_GRID)
    tp = np.zeros(len(grid), dtype=np.int64)
    pred = np.zeros(len(grid), dtype=np.int64)
    total_gold = 0
    for cs, match, row in zip(nbest.sets, nbest.span_match, scores):
        if len(row) != len(cs.candidates):
            raise NerrankError(
                f"sentence {cs.sentence_id}: {len(row)} scores for {len(cs.candidates)} candidates"
            )
        total_gold += match.gold_spans
        picks = mixture_select(row, [prob for _, prob in cs.candidates], grid)
        tp += np.take(match.hits, picks)
        pred += np.take(match.sizes, picks)
    f1 = [PrfCounts(t, n, total_gold).f1 for t, n in zip(tp.tolist(), pred.tolist())]
    best = max(range(len(f1)), key=f1.__getitem__)
    return AlphaSearchResult(alpha=ALPHA_GRID[best], f1=f1[best], points=len(f1))


# ---------------------------------------------------------------------------
# training


def _grad_norm(params: list[Tensor]) -> float:
    """Global L2 norm of the gradients over all the given parameters."""
    return float(np.sqrt(sum(np.vdot(p.grad, p.grad) for p in params if p.grad is not None)))


def train_reranker(
    train_examples: list[RerankExample],
    dev: NBestCorpus,
    config: TrainConfig,
    *,
    pretrained: dict[str, np.ndarray] | None = None,
) -> RerankerBundle:
    """Mini-batch Adam over shuffled examples; after every epoch the dev set
    is rescored and alpha re-tuned, and the epoch with the best dev F1 wins
    (ties -> the earlier epoch; epoch 0 is the untrained model)."""
    if not train_examples:
        raise NerrankError("no training examples")
    if len(dev) == 0:
        raise NerrankError("empty dev corpus")

    token_lists = [ex.tokens for ex in train_examples]
    vocab = build_vocab(token_lists)
    longest = max(len(t) for tokens in token_lists for t in tokens)
    char_pad = min(config.char_pad_cap, longest)
    scorer = PatternScorer(
        vocab,
        config.scorer,
        char_pad=char_pad,
        seed=config.seed,
        pretrained=pretrained,
    )
    adam = AdamState(
        [t for _, t in scorer.trainable()],
        lr=config.learning_rate,
        beta1=config.adam_beta1,
        beta2=config.adam_beta2,
        eps=config.adam_eps,
    )

    history: list[EpochEval] = []
    best: tuple[float, float, dict] | None = None
    rng = np.random.default_rng([config.seed, SHUFFLE_STREAM])
    order = np.arange(len(train_examples))
    for epoch in range(config.epochs + 1):
        with stage(f"rerank epoch {epoch}") as counts:
            if epoch:  # epoch 0 evaluates the untrained model
                rng.shuffle(order)
                losses, norms = [], []
                for batch_no, start in enumerate(range(0, len(order), config.batch_size), 1):
                    batch = [train_examples[i] for i in order[start : start + config.batch_size]]
                    for t in scorer.params.values():
                        t.grad = None
                    loss = batch_loss(scorer, batch, config.l2)
                    if not np.isfinite(loss.data).all():
                        raise NerrankError(
                            f"non-finite loss in rerank epoch {epoch}, batch {batch_no}"
                        )
                    losses.append(loss.item())
                    backward(loss)
                    norms.append(_grad_norm(adam.params))
                    adam.step()
                    del loss  # the graph goes before the next batch or the dev scoring
                counts.update(mean_loss=sum(losses) / len(losses), grad_norm=sum(norms) / len(norms))
            result = alpha_search(dev, score_sets(scorer, dev))
            counts.update(dev_f1=result.f1, alpha=result.alpha)
        history.append(EpochEval(epoch=epoch, alpha=result.alpha, dev_f1=result.f1))
        if best is None or result.f1 > best[0]:
            best = (result.f1, result.alpha, {n: t.data.copy() for n, t in scorer.params.items()})

    for name, t in scorer.params.items():
        t.data = best[2][name]
    return RerankerBundle(
        scorer=scorer, alpha=best[1], config=config, history=history
    )


# ---------------------------------------------------------------------------
# decoding


def rerank(bundle: RerankerBundle, nbest: NBestCorpus) -> list[LabelSeq]:
    """Mixture-select a candidate per sentence and return its BIO2 label
    sequence, read from the corpus's collapsed candidates."""
    predictions = []
    for cs, row, collapsed in zip(nbest.sets, score_sets(bundle.scorer, nbest), nbest.collapsed):
        (pick,) = mixture_select(row, [prob for _, prob in cs.candidates], [bundle.alpha])
        predictions.append(collapsed_to_labels(collapsed[pick]))
    return predictions


# ---------------------------------------------------------------------------
# persistence


def save_bundle(path, bundle: RerankerBundle, *, provenance: dict | None = None):
    """Write the bundle as a directory: the scorer parameters as an npz
    archive of named float64 arrays, plus its BundleMeta as JSON.

    Both files are written to temporaries first. Only then does the save
    commit: it removes meta.json, renames weights.bin in, then meta.json.
    So an interruption leaves the old bundle whole, a bundle without
    meta.json (which exits 2 on load), or the new bundle whole, and never
    one run's weights beside another run's meta."""
    os.makedirs(path, exist_ok=True)
    meta = BundleMeta(
        provenance=provenance or {},
        alpha=bundle.alpha,
        char_pad=bundle.scorer.char_pad,
        config=bundle.config,
        vocab=bundle.scorer.vocab,
        history=tuple(bundle.history),
    )
    # resolved, so that a symlinked meta.json loses its target, not its link
    meta_path = os.path.realpath(os.path.join(path, META_FILE))
    weights_path = os.path.join(path, WEIGHTS_FILE)
    with replacing(meta_path) as meta_fh, replacing(weights_path, binary=True) as weights_fh:
        write_npz(weights_fh, {name: t.data for name, t in bundle.scorer.params.items()})
        json.dump(asdict(meta), meta_fh, indent=2)
        meta_fh.write("\n")
        # every byte is handed to the OS before the commit starts
        weights_fh.flush()
        meta_fh.flush()
        if os.path.isfile(meta_path):
            os.remove(meta_path)
        # the writers exit in reverse order: weights.bin is renamed in, then meta.json


def load_bundle(path) -> RerankerBundle:
    """Read a bundle written by save_bundle, under `checkpoint_errors`: a
    missing or unreadable part exits 2, a malformed one 4."""
    with checkpoint_errors(path, "reranker bundle"):
        with open(os.path.join(path, META_FILE), encoding="utf-8") as fh:
            meta = decode(BundleMeta, json.load(fh))
        config = meta.config
        if meta.char_pad > config.char_pad_cap:
            raise ConfigError(f"char_pad {meta.char_pad} exceeds char_pad_cap {config.char_pad_cap}")
        with np.load(os.path.join(path, WEIGHTS_FILE), allow_pickle=False) as archive:
            weights = {name: archive[name] for name in archive.files}
        scorer = PatternScorer(
            meta.vocab, config.scorer, char_pad=meta.char_pad, seed=config.seed, weights=weights
        )
        return RerankerBundle(scorer, meta.alpha, config, list(meta.history))
