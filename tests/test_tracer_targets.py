"""The benchmark's tracer wraps nerrank functions by name and its counter
hooks read their arguments and results. A rename, or a refactor that drops
one of them or changes what it returns, would break `perfbench/run.py
--trace 1` without failing any other test, so this checks every name it
lists and runs its pipeline hooks on real results."""

import importlib
from pathlib import Path

from nerrank.baseline.nbest import CandidateSet, NBestCorpus
from nerrank.config import ScorerConfig
from nerrank.corpus import BioLabel, Sentence, Token
from nerrank.pipeline import alpha_search, make_examples, score_sets
from nerrank.reranker import PatternScorer, build_vocab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for _, module_name, attr, _ in tracer.TARGETS:
        holder = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(holder, part), f"{module_name}.{attr}: no {part}"
            holder = getattr(holder, part)
        assert callable(holder), f"{module_name}.{attr} is not callable"


def test_pipeline_counter_hooks_read_real_results(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    loc, per, none = (
        [BioLabel.parse(t) for t in tags]
        for tags in (("B-LOC", "O", "O"), ("B-PER", "O", "O"), ("O", "O", "O"))
    )
    corpus = NBestCorpus(
        [Sentence(0, tuple(Token(w) for w in ("Rome", "is", "far")))],
        [CandidateSet(0, loc, [(loc, 0.5), (per, 0.3), (none, 0.2)])],
    )
    examples = make_examples(corpus)
    scorer = PatternScorer(
        build_vocab([ex.tokens for ex in examples]),
        ScorerConfig(word_dim=3, char_dim=2, lstm_hidden=2, char_cnn_filters=2, word_cnn_filters=2),
        char_pad=4,
    )
    scores = score_sets(scorer, corpus)
    tr = tracer.Tracer()
    tracer._count_make_examples(tr, (corpus,), examples)
    assert (tr.counts["pipeline.candidates"], tr.counts["pipeline.distinct_patterns"]) == (3, 3)
    tracer._count_score_sets(tr, (scorer, corpus), scores)
    assert tr.counts["pipeline.candidates"] == 6
    tracer._count_alpha_search(tr, (corpus, scores), alpha_search(corpus, scores))
    assert tr.counts["pipeline.alpha_points"] == 201
