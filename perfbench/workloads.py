"""The benchmark's workloads: generated inputs and the stage sequence run on
them.

Every workload is a plan of nerrank CLI stages with paths relative to its
work directory. `prepare` stages run once and untimed; `stages` are the
timed pipeline, repeated for the length of a run. Each workload is sized so
that the layers it names do most of its work (see README.md here).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ClassVar

import corpora
from checks import read_nbest

# The CLI exposes no template offsets, so "word-only" keeps words and their
# shape at offsets -1 and 0 and switches every other template group off.
WORD_ONLY = (
    "--feat-word-bigrams", "false", "--feat-capital", "false",
    "--feat-capital-word", "false", "--feat-connect", "false",
    "--feat-capital-connect", "false", "--feat-cluster-grams", "false",
    "--feat-prefix-suffix", "false", "--feat-pos-grams", "false",
    "--feat-pos-word", "false",
)
# the end-to-end acceptance test's scorer
SMALL_SCORER = (
    "--word-dim", "16", "--char-dim", "8", "--lstm-hidden", "16",
    "--char-cnn-filters", "8", "--word-cnn-filters", "16", "--dropout", "0.1",
    "--batch-size", "64", "--learning-rate", "0.005", "--l2", "1e-4",
)


def count_cands(path: Path) -> int:
    return sum(len(block["cands"]) for block in read_nbest(path))


def count_sentences(path: Path) -> int:
    return len(path.read_text(encoding="utf-8").strip().split("\n\n"))


def count_tokens(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


@dataclass(frozen=True)
class Stage:
    """One CLI invocation. A stage that feeds a table metric names it:
    a `*_per_s` metric is `items(work)` over the stage's in-process time,
    a `*_s` metric is that time itself."""

    label: str
    argv: tuple[str, ...]
    metric: str | None = None
    items: Callable[[Path], float] | None = None


@dataclass
class Plan:
    prepare: list[Stage]
    stages: list[Stage]
    nbest_outputs: list[tuple[str, str, int]]  # (n-best file, gold CoNLL, k)
    test_gold: str
    test_nbest: str
    predictions: str | None  # reranked test predictions
    eval_output: str | None  # `eval` metrics file for `predictions`
    oracle_output: str | None  # `oracle` csv for `test_nbest`
    digest_files: list[str]
    crf: str
    bundle: str | None  # also turns on the scorer checks on test_nbest
    k: int


def _decode_argv(model, conll, nbest, k) -> tuple[str, ...]:
    return ("baseline-decode", "--model-path", model, "--input-path", conll,
            "--output-path", nbest, "--n-best", str(k))


def _decode(label, model, conll, nbest, k) -> Stage:
    return Stage(label, _decode_argv(model, conll, nbest, k), "decode_sent_per_s",
                 lambda w: count_sentences(w / conll))


@dataclass(frozen=True)
class ToyRerank:
    """Template corpus, word-only CRF, small scorer: reranker training
    dominates and collapsed patterns repeat heavily."""

    name: ClassVar[str] = "toy-rerank"
    train: int = 60
    dev: int = 30
    test: int = 60
    crf_epochs: int = 3
    folds: int = 2
    k: int = 10
    epochs: int = 1

    def generate(self, work: Path, seed: int) -> None:
        for split in ("train", "dev", "test"):
            sents = corpora.template_corpus(getattr(self, split), seed, split)
            corpora.write_conll(work / f"{split}.conll", sents)

    def plan(self, seed: int) -> Plan:
        k, s = str(self.k), str(seed)
        crf_opts = ("--crf-epochs", str(self.crf_epochs), "--seed", s) + WORD_ONLY
        stages = [
            Stage("baseline-train",
                  ("baseline-train", "--train-path", "train.conll",
                   "--model-path", "crf.npz") + crf_opts,
                  "crf_train_tok_per_s",
                  lambda w: count_tokens(w / "train.conll") * self.crf_epochs),
            _decode("decode-dev", "crf.npz", "dev.conll", "dev.nbest", self.k),
            _decode("decode-test", "crf.npz", "test.conll", "test.nbest", self.k),
            Stage("jackknife",
                  ("jackknife", "--train-path", "train.conll",
                   "--output-path", "train.nbest", "--folds", str(self.folds),
                   "--n-best", k) + crf_opts,
                  "jackknife_s"),
            Stage("rerank-train",
                  ("rerank-train", "--train-nbest-path", "train.nbest",
                   "--dev-nbest-path", "dev.nbest", "--bundle-path", "bundle",
                   "--n-best", k, "--epochs", str(self.epochs), "--seed", s)
                  + SMALL_SCORER,
                  "rerank_train_ex_per_s",
                  lambda w: count_cands(w / "train.nbest") * self.epochs),
            Stage("rerank-decode",
                  ("rerank-decode", "--bundle-path", "bundle",
                   "--nbest-path", "test.nbest", "--output-path", "pred.conll",
                   "--n-best", k),
                  "rerank_decode_cand_per_s",
                  lambda w: count_cands(w / "test.nbest")),
            Stage("eval",
                  ("eval", "--gold-path", "test.conll", "--pred-path", "pred.conll",
                   "--output-path", "eval.txt")),
        ]
        return Plan(
            prepare=[],
            stages=stages,
            nbest_outputs=[("train.nbest", "train.conll", self.k),
                           ("dev.nbest", "dev.conll", self.k),
                           ("test.nbest", "test.conll", self.k)],
            test_gold="test.conll",
            test_nbest="test.nbest",
            predictions="pred.conll",
            eval_output="eval.txt",
            oracle_output=None,
            digest_files=["crf.npz", "dev.nbest", "test.nbest", "train.nbest",
                          "bundle/meta.json", "bundle/weights.bin", "pred.conll",
                          "eval.txt"],
            crf="crf.npz",
            bundle="bundle",
            k=self.k,
        )


@dataclass(frozen=True)
class CrfWide:
    """Zipfian 5k-word corpus with POS and clusters, every feature template
    on: the CRF's dense per-feature work dominates, no scorer runs."""

    name: ClassVar[str] = "crf-wide"
    train: int = 200
    dev: int = 60
    test: int = 80
    vocab: int = 5000
    names: int = 400
    crf_epochs: int = 1
    folds: int = 2
    k: int = 10

    def generate(self, work: Path, seed: int) -> None:
        lex = corpora.make_lexicon(seed, self.vocab, self.names)
        for split in ("train", "dev", "test"):
            n = getattr(self, split)
            sents = corpora.zipf_corpus(
                lex, seed, split, corpora.spread(10, 30, n), corpora.spread(1, 4, n)
            )
            corpora.write_conll(work / f"{split}.conll", sents)
        corpora.write_clusters(work / "clusters.txt", lex)

    def plan(self, seed: int) -> Plan:
        k = str(self.k)
        crf_opts = ("--crf-epochs", str(self.crf_epochs), "--seed", str(seed),
                    "--clusters-path", "clusters.txt")
        stages = [
            Stage("baseline-train",
                  ("baseline-train", "--train-path", "train.conll",
                   "--model-path", "crf.npz") + crf_opts,
                  "crf_train_tok_per_s",
                  lambda w: count_tokens(w / "train.conll") * self.crf_epochs),
            Stage("jackknife",
                  ("jackknife", "--train-path", "train.conll",
                   "--output-path", "train.nbest", "--folds", str(self.folds),
                   "--n-best", k) + crf_opts,
                  "jackknife_s"),
            _decode("decode-dev", "crf.npz", "dev.conll", "dev.nbest", self.k),
            _decode("decode-test", "crf.npz", "test.conll", "test.nbest", self.k),
            Stage("oracle",
                  ("oracle", "--nbest-path", "test.nbest", "--n-best", k,
                   "--output-path", "oracle.csv")),
        ]
        return Plan(
            prepare=[],
            stages=stages,
            nbest_outputs=[("train.nbest", "train.conll", self.k),
                           ("dev.nbest", "dev.conll", self.k),
                           ("test.nbest", "test.conll", self.k)],
            test_gold="test.conll",
            test_nbest="test.nbest",
            predictions=None,
            eval_output=None,
            oracle_output="oracle.csv",
            digest_files=["crf.npz", "train.nbest", "dev.nbest", "test.nbest", "oracle.csv"],
            crf="crf.npz",
            bundle=None,
            k=self.k,
        )


@dataclass(frozen=True)
class LongDecode:
    """Long sentences with several entities, k=20 and a default-size
    bundle: k-best at long T and eval-mode scoring of mostly distinct
    patterns. The CRF and bundle are built untimed by the program itself."""

    name: ClassVar[str] = "long-decode"
    train: int = 100
    vocab_sents: int = 20
    dev: int = 4
    test: int = 8
    vocab: int = 3000
    names: int = 200
    crf_epochs: int = 2
    k: int = 20

    def generate(self, work: Path, seed: int) -> None:
        lex = corpora.make_lexicon(seed, self.vocab, self.names)
        sizes = {"train": self.train, "dev": self.dev, "test": self.test,
                 "extra": self.vocab_sents + 2}
        for split, n in sizes.items():
            sents = corpora.zipf_corpus(
                lex, seed, split, corpora.spread(30, 50, n), corpora.spread(3, 6, n)
            )
            if split == "extra":  # inputs of the untimed bundle build
                corpora.write_conll(work / "vocab.conll", sents[2:])
                corpora.write_conll(work / "prepdev.conll", sents[:2])
            else:
                corpora.write_conll(work / f"{split}.conll", sents)

    def plan(self, seed: int) -> Plan:
        k = str(self.k)
        prepare = [
            Stage("prepare-train",
                  ("baseline-train", "--train-path", "train.conll",
                   "--model-path", "crf.npz", "--crf-epochs", str(self.crf_epochs),
                   "--seed", str(seed))),
            Stage("prepare-decode-vocab",
                  _decode_argv("crf.npz", "vocab.conll", "vocab.nbest", self.k)),
            Stage("prepare-decode-dev",
                  _decode_argv("crf.npz", "prepdev.conll", "prepdev.nbest", self.k)),
            Stage("prepare-bundle",
                  ("rerank-train", "--train-nbest-path", "vocab.nbest",
                   "--dev-nbest-path", "prepdev.nbest", "--bundle-path", "bundle",
                   "--n-best", k, "--epochs", "0", "--seed", str(seed))),
        ]
        stages = [
            _decode("decode-dev", "crf.npz", "dev.conll", "dev.nbest", self.k),
            _decode("decode-test", "crf.npz", "test.conll", "test.nbest", self.k),
            Stage("alpha-search",
                  ("alpha-search", "--bundle-path", "bundle", "--nbest-path", "dev.nbest",
                   "--n-best", k, "--output-path", "alpha.txt"),
                  "alpha_search_s"),
            Stage("rerank-decode",
                  ("rerank-decode", "--bundle-path", "bundle",
                   "--nbest-path", "test.nbest", "--output-path", "pred.conll",
                   "--n-best", k),
                  "rerank_decode_cand_per_s",
                  lambda w: count_cands(w / "test.nbest")),
            Stage("eval",
                  ("eval", "--gold-path", "test.conll", "--pred-path", "pred.conll",
                   "--output-path", "eval.txt")),
        ]
        return Plan(
            prepare=prepare,
            stages=stages,
            nbest_outputs=[("dev.nbest", "dev.conll", self.k),
                           ("test.nbest", "test.conll", self.k)],
            test_gold="test.conll",
            test_nbest="test.nbest",
            predictions="pred.conll",
            eval_output="eval.txt",
            oracle_output=None,
            digest_files=["dev.nbest", "test.nbest", "alpha.txt", "pred.conll", "eval.txt"],
            crf="crf.npz",
            bundle="bundle",
            k=self.k,
        )


def rerank_at(label: str, nbest: str, output: str, k: int, alpha: str) -> Stage:
    """`rerank-decode` of `nbest` with the bundle at a fixed alpha."""
    return Stage(label, ("rerank-decode", "--bundle-path", "bundle", "--nbest-path", nbest,
                         "--output-path", output, "--n-best", str(k), "--alpha", alpha))


WORKLOADS = {w.name: w for w in (ToyRerank(), CrfWide(), LongDecode())}
