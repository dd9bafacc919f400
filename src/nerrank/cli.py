"""Command-line interface: one executable, one subcommand per pipeline stage.

Every run resolves a single flat configuration (file + `--key value`
overrides), logs it with its 12-hex digest, stamps the digest into every
text output file, and drops a machine-readable manifest next to the primary
output. Exit codes are stable per failure class (see EXIT_CODES); a
command-line usage error exits like a bad config key.

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

from . import __version__
from .baseline.features import read_clusters
from .baseline.nbest import build_nbest_corpus, decode_corpus, read_nbest, write_nbest
from .config import (
    FIELD_NAMES,
    RunConfig,
    ScorerConfig,
    config_hash,
    format_config,
    parse_config_text,
    resolve_config,
)
from .corpus import Dataset, format_conll, parse_conll, read_text
from .errors import (
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

log = logging.getLogger("nerrank")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_MISSING_FILE = 2
EXIT_BAD_CONFIG = 3
EXIT_CHECKPOINT = 4
EXIT_BAD_DATA = 5

# checked in order; first match decides the exit status
EXIT_CODES = (
    (FileNotFoundError, EXIT_MISSING_FILE),
    (IsADirectoryError, EXIT_MISSING_FILE),
    (ConfigError, EXIT_BAD_CONFIG),
    (CheckpointMismatchError, EXIT_CHECKPOINT),
    (ParseError, EXIT_BAD_DATA),
    (NerrankError, EXIT_FAILURE),
    (ValueError, EXIT_FAILURE),
)


def _header(cfg: RunConfig) -> str:
    return f"# nerrank {__version__} config {config_hash(cfg)}\n"


def _require(cfg: RunConfig, command: str, *names: str):
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        raise ConfigError(f"{command}: missing required config key(s): {', '.join(missing)}")


def _write_text(path, text: str, cfg: RunConfig):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write(text)


def _file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()[:12]


def _write_manifest(cfg: RunConfig, command: str, inputs: dict, outputs: dict):
    """Flat-text record of one invocation, written next to the primary
    output (or to manifest_path when set)."""
    path = cfg.manifest_path
    if path is None:
        primary = next(iter(outputs.values()), None)
        if primary is None:
            return
        path = f"{primary}.manifest"
    lines = [_header(cfg)]
    lines.append(f"command = {command}\n")
    lines.append(f"version = {__version__}\n")
    lines.append(f"config_hash = {config_hash(cfg)}\n")
    lines.append(f"seed = {cfg.train.seed}\n")
    for name, value in inputs.items():
        if value is None:
            continue
        lines.append(f"input_{name} = {value}\n")
        if os.path.isfile(value):
            lines.append(f"input_{name}_sha256 = {_file_digest(value)}\n")
    for name, value in outputs.items():
        lines.append(f"output_{name} = {value}\n")
    for line in format_config(cfg).splitlines():
        lines.append(f"config_{line}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def _load_clusters(cfg: RunConfig):
    if cfg.clusters_path is None:
        return None
    return read_clusters(read_text(cfg.clusters_path))


def _pct(x: float) -> str:
    return f"{100.0 * x:.2f}"


def _emit(cfg: RunConfig, text: str, *, out_key: str = "output_path") -> dict:
    """Print to stdout, or write (with header) when an output path is set."""
    path = getattr(cfg, out_key)
    if path is None:
        sys.stdout.write(text)
        return {}
    _write_text(path, text, cfg)
    return {out_key: path}


def _report(cfg: RunConfig, values: dict) -> dict:
    """Print metrics to stdout, and also write them (with header) when an
    output path is set."""
    text = format_metrics(values)
    sys.stdout.write(text)
    if cfg.output_path is None:
        return {}
    _write_text(cfg.output_path, text, cfg)
    return {"output_path": cfg.output_path}


def _check_bundle_arch(cfg: RunConfig, explicit: frozenset, bundle):
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


def _load_bundle_checked(cfg: RunConfig, explicit: frozenset):
    from .pipeline import load_bundle

    if not os.path.exists(cfg.bundle_path):
        raise FileNotFoundError(cfg.bundle_path)
    bundle = load_bundle(cfg.bundle_path)
    _check_bundle_arch(cfg, explicit, bundle)
    return bundle


# ---------------------------------------------------------------------------
# subcommands


def cmd_baseline_train(cfg: RunConfig, explicit: frozenset) -> int:
    from .baseline.crf import crf_train, save_crf

    _require(cfg, "baseline-train", "train_path", "model_path")
    dataset = parse_conll(read_text(cfg.train_path))
    templates = cfg.template_set(_load_clusters(cfg))
    model = crf_train(dataset, templates, **cfg.crf_options())
    save_crf(
        cfg.model_path,
        model,
        extra_meta={"version": __version__, "config_hash": config_hash(cfg)},
    )
    log.info(
        "trained on %d sentences, %d features, final NLL %.4f",
        len(dataset),
        len(model.feature_vocab),
        model.nll_history[-1],
    )
    _write_manifest(
        cfg,
        "baseline-train",
        {"train_path": cfg.train_path, "clusters_path": cfg.clusters_path},
        {"model_path": cfg.model_path},
    )
    return EXIT_OK


def cmd_baseline_decode(cfg: RunConfig, explicit: frozenset) -> int:
    from .baseline.crf import load_crf

    _require(cfg, "baseline-decode", "model_path", "input_path", "output_path")
    model = load_crf(cfg.model_path)
    dataset = parse_conll(read_text(cfg.input_path))
    corpus = decode_corpus(model, dataset, cfg.n_best)
    write_nbest(cfg.output_path, corpus, header=_header(cfg))
    log.info("decoded %d sentences with k=%d", len(corpus), cfg.n_best)
    _write_manifest(
        cfg,
        "baseline-decode",
        {"model_path": cfg.model_path, "input_path": cfg.input_path},
        {"output_path": cfg.output_path},
    )
    return EXIT_OK


def cmd_jackknife(cfg: RunConfig, explicit: frozenset) -> int:
    _require(cfg, "jackknife", "train_path", "output_path")
    dataset = parse_conll(read_text(cfg.train_path))
    templates = cfg.template_set(_load_clusters(cfg))
    corpus = build_nbest_corpus(
        dataset, cfg.folds, cfg.n_best, templates, **cfg.crf_options()
    )
    write_nbest(cfg.output_path, corpus, header=_header(cfg))
    log.info("jackknifed %d sentences over %d folds", len(corpus), cfg.folds)
    _write_manifest(
        cfg,
        "jackknife",
        {"train_path": cfg.train_path, "clusters_path": cfg.clusters_path},
        {"output_path": cfg.output_path},
    )
    return EXIT_OK


def cmd_collapse(cfg: RunConfig, explicit: frozenset) -> int:
    _require(cfg, "collapse", "nbest_path")
    corpus = read_nbest(cfg.nbest_path)
    lines = []
    for sentence, row in zip(corpus.sentences, corpus.patterns):
        for idx, pattern in enumerate(row):
            lines.append(f"{sentence.id}\t{idx}\t{' '.join(pattern)}\n")
    outputs = _emit(cfg, "".join(lines))
    _write_manifest(cfg, "collapse", {"nbest_path": cfg.nbest_path}, outputs)
    return EXIT_OK


def cmd_rerank_train(cfg: RunConfig, explicit: frozenset) -> int:
    from .pipeline import make_examples, save_bundle, train_reranker
    from .reranker.embeddings import read_embeddings

    _require(cfg, "rerank-train", "train_nbest_path", "dev_nbest_path", "bundle_path")
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
    save_bundle(
        cfg.bundle_path,
        bundle,
        provenance={"version": __version__, "config_hash": config_hash(cfg)},
    )
    log.info("selected alpha = %s", bundle.alpha)
    _write_manifest(
        cfg,
        "rerank-train",
        {
            "train_nbest_path": cfg.train_nbest_path,
            "dev_nbest_path": cfg.dev_nbest_path,
            "embeddings_path": cfg.embeddings_path,
        },
        {"bundle_path": cfg.bundle_path},
    )
    return EXIT_OK


def cmd_rerank_decode(cfg: RunConfig, explicit: frozenset) -> int:
    from .pipeline import rerank

    _require(cfg, "rerank-decode", "bundle_path", "nbest_path", "output_path")
    bundle = _load_bundle_checked(cfg, explicit)
    if "alpha" in explicit and cfg.alpha is not None:
        bundle = replace(bundle, alpha=cfg.alpha)
    corpus = read_nbest(cfg.nbest_path).truncated(cfg.n_best)
    predictions = rerank(bundle, corpus)
    dataset = Dataset(list(corpus.sentences), predictions)
    _write_text(cfg.output_path, format_conll(dataset), cfg)
    log.info("reranked %d sentences at alpha = %s", len(corpus), bundle.alpha)
    _write_manifest(
        cfg,
        "rerank-decode",
        {"bundle_path": cfg.bundle_path, "nbest_path": cfg.nbest_path},
        {"output_path": cfg.output_path},
    )
    return EXIT_OK


def cmd_eval(cfg: RunConfig, explicit: frozenset) -> int:
    _require(cfg, "eval", "gold_path", "pred_path")
    gold_ds = parse_conll(read_text(cfg.gold_path))
    pred_ds = parse_conll(read_text(cfg.pred_path))
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
    outputs = _report(cfg, values)
    _write_manifest(
        cfg,
        "eval",
        {"gold_path": cfg.gold_path, "pred_path": cfg.pred_path},
        outputs,
    )
    return EXIT_OK


def cmd_oracle(cfg: RunConfig, explicit: frozenset) -> int:
    _require(cfg, "oracle", "nbest_path")
    corpus = read_nbest(cfg.nbest_path)
    report = oracle(corpus, n_max=cfg.n_best)
    outputs = _emit(cfg, oracle_csv(report))
    _write_manifest(cfg, "oracle", {"nbest_path": cfg.nbest_path}, outputs)
    return EXIT_OK


def cmd_alpha_search(cfg: RunConfig, explicit: frozenset) -> int:
    from .pipeline import alpha_search, score_sets

    _require(cfg, "alpha-search", "bundle_path", "nbest_path")
    bundle = _load_bundle_checked(cfg, explicit)
    corpus = read_nbest(cfg.nbest_path).truncated(cfg.n_best)
    result = alpha_search(corpus, score_sets(bundle.scorer, corpus))
    values = {
        "alpha": result.alpha,
        "f1": _pct(result.f1),
        "grid_points": result.points,
    }
    outputs = _report(cfg, values)
    _write_manifest(
        cfg,
        "alpha-search",
        {"bundle_path": cfg.bundle_path, "nbest_path": cfg.nbest_path},
        outputs,
    )
    return EXIT_OK


COMMANDS = {
    "baseline-train": (cmd_baseline_train, "train the CRF tagger and save its checkpoint"),
    "baseline-decode": (cmd_baseline_decode, "decode a corpus into an n-best file"),
    "jackknife": (cmd_jackknife, "fold-wise decode the training split into an n-best file"),
    "collapse": (cmd_collapse, "print collapsed patterns of an n-best file"),
    "rerank-train": (cmd_rerank_train, "train the pattern reranker and tune alpha"),
    "rerank-decode": (cmd_rerank_decode, "mixture-decode an n-best file to predictions"),
    "eval": (cmd_eval, "score a prediction file against gold"),
    "oracle": (cmd_oracle, "oracle best/worst curves of an n-best file"),
    "alpha-search": (cmd_alpha_search, "re-tune the interpolation weight on a dev n-best file"),
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
    for name, (_, help_text) in COMMANDS.items():
        subparsers.add_parser(name, help=help_text, parents=[shared])
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
        command, _ = COMMANDS[args.command]
        return command(cfg, explicit)
    except Exception as exc:  # mapped to stable exit codes
        for klass, code in EXIT_CODES:
            if isinstance(exc, klass):
                print(f"nerrank: error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
