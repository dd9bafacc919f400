"""Command-line interface: one executable, one subcommand per pipeline stage.

Every run resolves a single flat configuration (file + `--key value`
overrides), logs it with its 12-hex digest, stamps the digest into every
text output file, and drops a machine-readable manifest next to the primary
output. Exit codes are stable per failure class (see EXIT_CODES); a
command-line usage error exits like a bad config key.

Each command is one `COMMANDS` entry: the function it runs, its help
text, the path keys it reads (in manifest order), the key of its primary
output and which of those keys may be unset. For every command `main`
checks that the other keys are set, runs the function, which only
computes and writes its output and returns its counts, writes the
manifest from the entry, and logs the command's wall time and counts as
one `trace.stage` line.

Each command imports the numpy-backed modules it runs (`baseline.crf`,
`pipeline`, `reranker`) inside its own body, so importing this module, and
the `eval`, `oracle` and `collapse` commands, load no numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

from . import __version__
from .baseline.features import read_clusters
from .baseline.nbest import build_nbest_corpus, decode_corpus, format_nbest, read_nbest
from .config import (
    FIELD_NAMES,
    META_FILE,
    WEIGHTS_FILE,
    RunConfig,
    ScorerConfig,
    config_hash,
    format_config,
    parse_config_text,
    resolve_config,
)
from .corpus import COMMENT_PREFIX, Dataset, format_conll, parse_conll, read_text, replacing
from .errors import (
    FILE_ERRORS,
    CheckpointMismatchError,
    ConfigError,
    NerrankError,
    ParseError,
)
from .evaluation import (
    chunk_prf,
    format_metrics,
    length_bucket_ssa,
    oracle,
    oracle_csv,
    ssa,
)
from .trace import stage

log = logging.getLogger("nerrank")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MISSING_FILE = 2
EXIT_BAD_CONFIG = 3
EXIT_CHECKPOINT = 4
EXIT_BAD_DATA = 5

# checked in order; first match decides the exit status
EXIT_CODES = (
    (FILE_ERRORS, EXIT_MISSING_FILE),
    (ConfigError, EXIT_BAD_CONFIG),
    (CheckpointMismatchError, EXIT_CHECKPOINT),
    (ParseError, EXIT_BAD_DATA),
    (NerrankError, EXIT_FAILURE),
    (ValueError, EXIT_FAILURE),
)


def _header(cfg: RunConfig) -> str:
    return f"{COMMENT_PREFIX} {__version__} config {config_hash(cfg)}\n"


def _digest(path) -> str:
    """12 hex of the sha256 of a file's bytes; for a directory (a bundle),
    of its two files, meta.json then weights.bin, each as its name, NUL,
    its bytes. Any other file there, such as a temporary that a killed
    writer left, is not the bundle's and is not hashed."""
    digest = hashlib.sha256()
    if os.path.isdir(path):
        parts = [(name.encode() + b"\0", os.path.join(path, name)) for name in (META_FILE, WEIGHTS_FILE)]
    else:
        parts = [(b"", path)]
    for prefix, file_path in parts:
        digest.update(prefix)
        with open(file_path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
    return digest.hexdigest()[:12]


def _write_manifest(cfg: RunConfig, name: str, command: Command):
    """Flat-text record of one invocation, written next to the primary
    output (or to manifest_path when set)."""
    output = getattr(cfg, command.writes)
    path = cfg.manifest_path
    if path is None:
        if output is None:
            return
        path = f"{output}.manifest"
    lines = [_header(cfg)]
    lines.append(f"command = {name}\n")
    lines.append(f"version = {__version__}\n")
    lines.append(f"config_hash = {config_hash(cfg)}\n")
    lines.append(f"seed = {cfg.train.seed}\n")
    for key in command.reads:
        value = getattr(cfg, key)
        if value is None:
            continue
        lines.append(f"input_{key} = {value}\n")
        if os.path.exists(value):
            lines.append(f"input_{key}_sha256 = {_digest(value)}\n")
    if output is not None:
        lines.append(f"output_{command.writes} = {output}\n")
    for line in format_config(cfg).splitlines():
        lines.append(f"config_{line}\n")
    with replacing(path) as fh:
        fh.writelines(lines)


def _load_clusters(cfg: RunConfig):
    if cfg.clusters_path is None:
        return None
    return read_clusters(read_text(cfg.clusters_path))


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _emit(cfg: RunConfig, text: str, *, echo: bool = False):
    """Write (with header) to the output path when one is set; print to
    stdout when none is, or always with `echo`."""
    if echo or cfg.output_path is None:
        sys.stdout.write(text)
    if cfg.output_path is not None:
        with replacing(cfg.output_path) as fh:
            fh.write(_header(cfg))
            fh.write(text)


def _provenance(cfg: RunConfig) -> dict:
    """What a saved model records of the run that made it."""
    return {"version": __version__, "config_hash": config_hash(cfg)}


def _load_bundle_and_nbest(cfg: RunConfig, explicit: frozenset):
    """The bundle at bundle_path, unless an architecture key given
    explicitly disagrees with it, and then the n-best corpus at
    nbest_path cut to n_best."""
    from .pipeline import load_bundle

    bundle = load_bundle(cfg.bundle_path)
    mine, loaded = cfg.train.scorer, bundle.config.scorer
    clashes = [
        key
        for key in ScorerConfig.arch_keys()
        if key in explicit and getattr(mine, key) != getattr(loaded, key)
    ]
    if clashes:
        raise CheckpointMismatchError(
            "config disagrees with the loaded model on: " + ", ".join(clashes)
        )
    return bundle, read_nbest(cfg.nbest_path).truncated(cfg.n_best)


# ---------------------------------------------------------------------------
# subcommands


def cmd_baseline_train(cfg: RunConfig, explicit: frozenset):
    from .baseline.crf import crf_train, save_crf

    dataset = parse_conll(read_text(cfg.train_path))
    templates = cfg.template_set(_load_clusters(cfg))
    model = crf_train(dataset, templates, **cfg.crf_options())
    save_crf(cfg.model_path, model, extra_meta=_provenance(cfg))
    return {
        "sentences": len(dataset),
        "features": len(model.feature_vocab),
        "final_nll": model.nll_history[-1],
    }


def cmd_baseline_decode(cfg: RunConfig, explicit: frozenset):
    from .baseline.crf import load_crf

    model = load_crf(cfg.model_path)
    dataset = parse_conll(read_text(cfg.input_path))
    corpus = decode_corpus(model, dataset, cfg.n_best)
    _emit(cfg, format_nbest(corpus))
    return {"sentences": len(corpus), "k": cfg.n_best}


def cmd_jackknife(cfg: RunConfig, explicit: frozenset):
    dataset = parse_conll(read_text(cfg.train_path))
    templates = cfg.template_set(_load_clusters(cfg))
    corpus = build_nbest_corpus(
        dataset, cfg.folds, cfg.n_best, templates, **cfg.crf_options()
    )
    _emit(cfg, format_nbest(corpus))
    return {"sentences": len(corpus), "folds": cfg.folds}


def cmd_collapse(cfg: RunConfig, explicit: frozenset):
    corpus = read_nbest(cfg.nbest_path)
    lines = []
    for sentence, row in zip(corpus.sentences, corpus.patterns):
        for idx, pattern in enumerate(row):
            lines.append(f"{sentence.id}\t{idx}\t{' '.join(pattern)}\n")
    _emit(cfg, "".join(lines))


def cmd_rerank_train(cfg: RunConfig, explicit: frozenset):
    from .pipeline import make_examples, save_bundle, train_reranker
    from .reranker.embeddings import read_embeddings

    train_nb = read_nbest(cfg.train_nbest_path).truncated(cfg.n_best)
    dev_nb = read_nbest(cfg.dev_nbest_path).truncated(cfg.n_best)
    pretrained = (
        read_embeddings(cfg.embeddings_path, cfg.train.scorer.word_dim)
        if cfg.embeddings_path is not None
        else None
    )
    bundle = train_reranker(
        make_examples(train_nb), dev_nb, cfg.train, pretrained=pretrained
    )
    save_bundle(cfg.bundle_path, bundle, provenance=_provenance(cfg))
    return {"alpha": bundle.alpha}


def cmd_rerank_decode(cfg: RunConfig, explicit: frozenset):
    from .pipeline import rerank

    bundle, corpus = _load_bundle_and_nbest(cfg, explicit)
    if cfg.alpha is not None:
        bundle = replace(bundle, alpha=cfg.alpha)
    predictions = rerank(bundle, corpus)
    dataset = Dataset(list(corpus.sentences), predictions)
    _emit(cfg, format_conll(dataset))
    return {"sentences": len(corpus), "alpha": bundle.alpha}


def cmd_eval(cfg: RunConfig, explicit: frozenset):
    gold_ds = parse_conll(read_text(cfg.gold_path))
    pred_ds = parse_conll(read_text(cfg.pred_path))
    for i, (gold, pred) in enumerate(zip(gold_ds.sentences, pred_ds.sentences)):
        for j, (g, p) in enumerate(zip(gold.surfaces, pred.surfaces)):
            if g != p:
                raise NerrankError(f"corpus misalignment: sentence {i} token {j} is {g!r} in gold, {p!r} predicted")
    report = chunk_prf(gold_ds.gold, pred_ds.gold)
    values = {
        "precision": _pct(report.precision),
        "recall": _pct(report.recall),
        "F1": _pct(report.f1),
        "ssa": _pct(ssa(pred_ds.gold, gold_ds.gold)),
    }
    for name, counts in sorted(report.by_type.items()):
        values[f"{name}_precision"] = _pct(counts.precision)
        values[f"{name}_recall"] = _pct(counts.recall)
        values[f"{name}_F1"] = _pct(counts.f1)
    for row in length_bucket_ssa(pred_ds.gold, gold_ds.gold, cfg.bucket_width):
        values[f"ssa_len_{row.upper}"] = _pct(row.ssa)
    _emit(cfg, format_metrics(values), echo=True)


def cmd_oracle(cfg: RunConfig, explicit: frozenset):
    corpus = read_nbest(cfg.nbest_path).truncated(cfg.n_best)
    _emit(cfg, oracle_csv(oracle(corpus)))


def cmd_alpha_search(cfg: RunConfig, explicit: frozenset):
    from .pipeline import alpha_search, score_sets

    bundle, corpus = _load_bundle_and_nbest(cfg, explicit)
    result = alpha_search(corpus, score_sets(bundle.scorer, corpus))
    values = {
        "alpha": result.alpha,
        "f1": _pct(result.f1),
        "grid_points": result.points,
    }
    _emit(cfg, format_metrics(values), echo=True)


class Command(NamedTuple):
    """What a command runs and which path keys it reads and writes."""

    run: Callable[[RunConfig, frozenset], dict | None]  # returns the counts `main` logs
    help: str
    reads: tuple[str, ...]  # in manifest order
    writes: str = "output_path"
    optional: tuple[str, ...] = ()  # keys that may be unset

    def required(self) -> list[str]:
        return [key for key in (*self.reads, self.writes) if key not in self.optional]


PRINTS = ("output_path",)  # prints when unset

COMMANDS = {
    "baseline-train": Command(
        cmd_baseline_train, "train the CRF tagger and save its checkpoint",
        ("train_path", "clusters_path"), "model_path", optional=("clusters_path",),
    ),
    "baseline-decode": Command(
        cmd_baseline_decode, "decode a corpus into an n-best file", ("model_path", "input_path"),
    ),
    "jackknife": Command(
        cmd_jackknife, "fold-wise decode the training split into an n-best file",
        ("train_path", "clusters_path"), optional=("clusters_path",),
    ),
    "collapse": Command(
        cmd_collapse, "print collapsed patterns of an n-best file", ("nbest_path",), optional=PRINTS,
    ),
    "rerank-train": Command(
        cmd_rerank_train, "train the pattern reranker and tune alpha",
        ("train_nbest_path", "dev_nbest_path", "embeddings_path"), "bundle_path",
        optional=("embeddings_path",),
    ),
    "rerank-decode": Command(
        cmd_rerank_decode, "mixture-decode an n-best file to predictions",
        ("bundle_path", "nbest_path"),
    ),
    "eval": Command(
        cmd_eval, "score a prediction file against gold", ("gold_path", "pred_path"), optional=PRINTS,
    ),
    "oracle": Command(
        cmd_oracle, "oracle best/worst curves of an n-best file", ("nbest_path",), optional=PRINTS,
    ),
    "alpha-search": Command(
        cmd_alpha_search, "re-tune the interpolation weight on a dev n-best file",
        ("bundle_path", "nbest_path"), optional=PRINTS,
    ),
}


class _Parser(argparse.ArgumentParser):
    """Command-line usage errors exit like a bad config key."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_CONFIG, f"nerrank: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nerrank",
        description="n-best reranking toolkit for named entity recognition",
    )
    parser.add_argument("--version", action="version", version=f"nerrank {__version__}")
    # every subcommand takes the same options: declared once, shared as a parent
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for field_name in FIELD_NAMES:
        shared.add_argument(
            "--" + field_name.replace("_", "-"),
            dest=f"opt_{field_name}",
            metavar="VALUE",
            help=argparse.SUPPRESS,
        )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparsers.add_parser(name, help=command.help, parents=[shared])
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_text(read_text(args.config)) if args.config else {}
        overrides = {
            name: getattr(args, f"opt_{name}")
            for name in FIELD_NAMES
            if getattr(args, f"opt_{name}") is not None
        }
        cfg, explicit = resolve_config(file_values, overrides)
        log.info(
            "nerrank %s %s (config %s, seed %d)",
            __version__,
            args.command,
            config_hash(cfg),
            cfg.train.seed,
        )
        log.info("resolved config:\n%s", format_config(cfg).rstrip("\n"))
        command = COMMANDS[args.command]
        missing = [key for key in command.required() if getattr(cfg, key) is None]
        if missing:
            raise ConfigError(
                f"{args.command}: missing required config key(s): {', '.join(missing)}"
            )
        with stage(args.command) as counts:
            counts.update(command.run(cfg, explicit) or {})
            _write_manifest(cfg, args.command, command)
        return EXIT_OK
    except Exception as exc:  # mapped to stable exit codes
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print(f"nerrank: error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
