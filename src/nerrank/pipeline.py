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
import logging
import os
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .baseline.nbest import NBestCorpus
from .collapse import CollapsedSequence, collapsed_token_strings
from .config import ALPHA_GRID, ScorerConfig, TrainConfig, _on_grid
from .corpus import LabelSeq, normalize_to_bio2
from .errors import CheckpointMismatchError, ConfigError, NerrankError
from .evaluation import PrfCounts
from .numerics import AdamState, Tensor, backward, scale, sum_all
from .reranker import PatternScorer, Vocab, build_vocab

SHUFFLE_STREAM = 23
WEIGHTS_FILE = "weights.bin"
META_FILE = "meta.json"
_META_KEYS = ("provenance", "alpha", "char_pad", "config", "vocab", "history")
SCORE_CHUNK = 64

log = logging.getLogger(__name__)


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
        if not _on_grid(self.alpha):
            raise ConfigError(
                f"alpha {self.alpha} is outside the 0.005 search grid"
            )


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


def batch_loss(
    scorer: PatternScorer,
    batch: list[RerankExample],
    l2: float,
    *,
    train: bool = True,
) -> Tensor:
    """Mean squared error over the batch plus (l2/2) * ||params||^2."""
    if not batch:
        raise NerrankError("cannot compute the loss of an empty batch")
    scores = scorer.score_batch([ex.tokens for ex in batch], train=train)
    diff = scores - Tensor(np.array([[ex.target] for ex in batch]))
    loss = scale(sum_all(diff * diff), 1.0 / len(batch))
    if l2 > 0.0:
        reg = None
        for _, p in scorer.trainable():
            term = sum_all(p * p)
            reg = term if reg is None else reg + term
        loss = loss + scale(reg, l2 / 2.0)
    return loss


# ---------------------------------------------------------------------------
# scoring and selection


def score_sets(scorer: PatternScorer, nbest: NBestCorpus) -> list[list[float]]:
    """Evaluation-mode scores for every candidate in the corpus, one list
    per sentence in `cs.candidates` order.

    Each distinct collapsed pattern (`NBestCorpus.patterns`) is scored once,
    in first-occurrence order; duplicates (very common after collapsing)
    reuse the cached value.
    """
    keys = nbest.patterns
    order = list(dict.fromkeys(key for row in keys for key in row))
    values: dict[tuple[str, ...], float] = {}
    for start in range(0, len(order), SCORE_CHUNK):
        chunk = order[start : start + SCORE_CHUNK]
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
    missing = [cs.sentence_id for cs in nbest.sets if cs.gold is None]
    if missing:
        raise NerrankError(
            f"alpha search needs gold labels; missing for sentence(s) {missing[:5]}"
        )
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
    if any(cs.gold is None for cs in dev.sets):
        raise NerrankError("dev corpus needs gold labels for model selection")

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
    best: tuple[float, int, float, dict] | None = None

    def evaluate(epoch: int, losses: list[float], norms: list[float]):
        nonlocal best
        result = alpha_search(dev, score_sets(scorer, dev))
        history.append(EpochEval(epoch=epoch, alpha=result.alpha, dev_f1=result.f1))
        log.info(
            "epoch %d: mean loss %s, grad norm %s, dev F1 %.4f at alpha %.3f",
            epoch,
            f"{sum(losses) / len(losses):.6f}" if losses else "-",
            f"{sum(norms) / len(norms):.6g}" if norms else "-",
            result.f1,
            result.alpha,
        )
        if best is None or result.f1 > best[0]:
            best = (result.f1, epoch, result.alpha, scorer.params.copy_arrays())

    evaluate(0, [], [])
    rng = np.random.default_rng([config.seed, SHUFFLE_STREAM])
    order = np.arange(len(train_examples))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        losses, norms = [], []
        for batch_no, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_examples[i] for i in order[start : start + config.batch_size]]
            scorer.params.zero_grad()
            loss = batch_loss(scorer, batch, config.l2, train=True)
            if not np.isfinite(loss.data).all():
                raise NerrankError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            losses.append(loss.item())
            backward(loss)
            norms.append(_grad_norm(adam.params))
            adam.step()
        evaluate(epoch, losses, norms)

    scorer.params.load_arrays(best[3])
    return RerankerBundle(
        scorer=scorer, alpha=best[2], config=config, history=history
    )


# ---------------------------------------------------------------------------
# decoding


def rerank(bundle: RerankerBundle, nbest: NBestCorpus) -> list[LabelSeq]:
    """Mixture-select a candidate per sentence and return its label sequence."""
    predictions = []
    for cs, row in zip(nbest.sets, score_sets(bundle.scorer, nbest)):
        (pick,) = mixture_select(row, [prob for _, prob in cs.candidates], [bundle.alpha])
        predictions.append(normalize_to_bio2(cs.candidates[pick][0]))
    return predictions


# ---------------------------------------------------------------------------
# persistence


def save_bundle(path, bundle: RerankerBundle, *, provenance: dict | None = None):
    """Write the bundle as a directory: the scorer parameters as an npz
    archive of named float64 arrays, plus a JSON description."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, WEIGHTS_FILE), "wb") as fh:
        np.savez(fh, **{name: t.data for name, t in bundle.scorer.params.items()})
    meta = {
        "provenance": provenance or {},
        "alpha": bundle.alpha,
        "char_pad": bundle.scorer.char_pad,
        "config": asdict(bundle.config),
        "vocab": {
            "words": bundle.scorer.vocab.word_list(),
            "chars": bundle.scorer.vocab.char_list(),
        },
        "history": [asdict(h) for h in bundle.history],
    }
    with open(os.path.join(path, META_FILE), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _expect_keys(what: str, values: dict, keys):
    if set(values) != set(keys):
        raise CheckpointMismatchError(
            f"{what} keys differ (missing {sorted(set(keys) - set(values))},"
            f" unknown {sorted(set(values) - set(keys))})"
        )


def load_bundle(path) -> RerankerBundle:
    """Read a bundle written by save_bundle; a missing or malformed part
    raises CheckpointMismatchError naming the path."""
    try:
        with open(os.path.join(path, META_FILE), encoding="utf-8") as fh:
            meta = json.load(fh)
        _expect_keys(META_FILE, meta, _META_KEYS)
        _expect_keys("vocab", meta["vocab"], ("words", "chars"))
        stored = meta["config"]
        _expect_keys("config", stored, [f.name for f in fields(TrainConfig)])
        _expect_keys("config.scorer", stored["scorer"], [f.name for f in fields(ScorerConfig)])
        config = TrainConfig(**{**stored, "scorer": ScorerConfig(**stored["scorer"])})
        vocab = Vocab.from_lists(meta["vocab"]["words"], meta["vocab"]["chars"])
        scorer = PatternScorer(
            vocab, config.scorer, char_pad=meta["char_pad"], seed=config.seed
        )
        with np.load(os.path.join(path, WEIGHTS_FILE), allow_pickle=False) as archive:
            scorer.params.load_arrays({name: archive[name] for name in archive.files})
        history = [EpochEval(**h) for h in meta["history"]]
        return RerankerBundle(
            scorer=scorer, alpha=meta["alpha"], config=config, history=history
        )
    except Exception as exc:
        raise CheckpointMismatchError(
            f"{path} is not a readable reranker bundle: {exc}"
        ) from exc
