"""Out-of-program tracing of nerrank's layers.

`Tracer.install()` replaces each layer function listed in TARGETS with a
wrapper, both on its defining module or class and under every name any
`nerrank` module imported it by. A wrapper records a span (name, start,
end, parent) in memory and updates counters at the same boundary. Nothing
in the program changes: the wrappers call the originals with the same
arguments and return their results.

A span's self time is its duration minus the time its direct children
cover. Work the tracer itself does after a call (counting, walking a loss
graph) is recorded as a `trace.hook` span, so it lands in no layer's self
time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

HOOK = "trace.hook"
ROOT = "cli"


def _graph_size(root) -> int:
    """Nodes in the autodiff graph that ends in `root`."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _pattern(example) -> tuple:
    # not ex.tokens: that cached property would move work out of the scorer
    return tuple(item.token_string() for item in example.collapsed.items)


def _count_crf_train(tr, args, result):
    tr.counts["crf.features"] = max(tr.counts["crf.features"], len(result.feature_vocab))


def _count_adam(tr, args, result):
    layer = "crf" if tr.active["crf_train"] else "optim"
    tr.counts[f"{layer}.adam_steps"] += 1
    tr.counts[f"{layer}.adam_values"] += sum(
        p.data.size for p in args[0].params if p.grad is not None
    )


def _count_score_batch(tr, args, result):
    tr.counts["scorer.sequences"] += len(args[1])
    if tr.active["score_sets"]:
        tr.counts["pipeline.distinct_patterns"] += len(args[1])


def _count_batch_loss(tr, args, result):
    tr.counts["scorer.loss_examples"] += len(args[1])
    tr.counts["scorer.graph_nodes"] += _graph_size(result)


def _count_make_examples(tr, args, result):
    tr.counts["pipeline.candidates"] += len(result)
    tr.counts["pipeline.distinct_patterns"] += len({_pattern(ex) for ex in result})


def _count_score_sets(tr, args, result):
    tr.counts["pipeline.candidates"] += sum(len(cs.candidates) for cs in args[1].sets)


def _count_parse_nbest(tr, args, result):
    tr.counts["nbest.bytes"] += len(args[0].encode("utf-8"))


def _count_format_nbest(tr, args, result):
    tr.counts["nbest.bytes"] += len(result.encode("utf-8"))


def _count_alpha_search(tr, args, result):
    tr.counts["pipeline.alpha_points"] += result.points


def _adam_name(tr) -> str:
    return "crf.adam_step" if tr.active["crf_train"] else "optim.adam_step"


# (span name or name function, module, attribute, counter hook)
TARGETS = (
    ("featurize", "nerrank.baseline.features", "featurize", None),
    ("crf_train", "nerrank.baseline.crf", "crf_train", _count_crf_train),
    (_adam_name, "nerrank.numerics.optim", "AdamState.step", _count_adam),
    ("kbest", "nerrank.baseline.crf", "kbest_decode", None),
    ("emission", "nerrank.baseline.crf", "CrfModel.emission_scores", None),
    ("log_partition", "nerrank.baseline.crf", "CrfModel.log_partition", None),
    ("jackknife", "nerrank.baseline.nbest", "build_nbest_corpus", None),
    ("parse_nbest", "nerrank.baseline.nbest", "parse_nbest", _count_parse_nbest),
    ("format_nbest", "nerrank.baseline.nbest", "format_nbest", _count_format_nbest),
    ("collapse", "nerrank.collapse", "collapse", None),
    ("score_batch", "nerrank.reranker.model", "PatternScorer.score_batch", _count_score_batch),
    ("word_matrix", "nerrank.reranker.model", "PatternScorer.word_matrix", None),
    ("lstm", "nerrank.reranker.model", "PatternScorer.lstm_encode", None),
    ("word_cnn", "nerrank.reranker.model", "PatternScorer.word_cnn_encode", None),
    ("backward", "nerrank.numerics.tensor", "backward", None),
    ("make_examples", "nerrank.pipeline", "make_examples", _count_make_examples),
    ("batch_loss", "nerrank.pipeline", "batch_loss", _count_batch_loss),
    ("score_sets", "nerrank.pipeline", "score_sets", _count_score_sets),
    ("alpha_search", "nerrank.pipeline", "alpha_search", _count_alpha_search),
    ("load_bundle", "nerrank.pipeline", "load_bundle", None),
    ("save_bundle", "nerrank.pipeline", "save_bundle", None),
    ("parse_conll", "nerrank.corpus", "parse_conll", None),
    ("chunk_prf", "nerrank.evaluation", "chunk_prf", None),
    ("oracle", "nerrank.evaluation", "oracle", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def install(self) -> None:
        for name, module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, fn_name)
            wrapped = self._wrap(name, original, hook)
            setattr(holder, fn_name, wrapped)
            if owner:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "nerrank":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, name, fn, hook):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(self)
            span = [label, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            active[label] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active[label] -= 1
                stack.pop()
            if hook is not None:
                start = perf_counter()
                hook(self, args, result)
                spans.append([HOOK, start, perf_counter(), stack[-1]])
            return result

        return wrapper

    def run_root(self, fn, *args):
        """Call fn under the root span that every layer span nests in."""
        return self._wrap(ROOT, fn, None)(*args)

    def summary(self) -> dict:
        """Per span name: calls, busy (inclusive) and self seconds; the
        counters; and the raw spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = layers.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - covered
        return {"layers": layers, "counts": dict(self.counts), "spans": self.spans}
