"""Tests for run configuration, model persistence, and the command-line
interface (exit codes, output headers, manifests, determinism)."""

import hashlib
import json
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nerrank
from nerrank import __version__
from nerrank.baseline.crf import crf_train, load_crf, save_crf
from nerrank.baseline.features import FeatureTemplateSet
from nerrank.baseline.nbest import read_nbest
from nerrank.cli import (
    EXIT_BAD_CONFIG,
    EXIT_BAD_DATA,
    EXIT_CHECKPOINT,
    EXIT_FAILURE,
    EXIT_MISSING_FILE,
    EXIT_OK,
    main,
)
from nerrank.config import (
    FIELD_NAMES,
    RunConfig,
    ScorerConfig,
    TrainConfig,
    config_hash,
    format_config,
    parse_config_text,
    resolve_config,
)
from nerrank.corpus import Dataset, format_conll, normalize_to_bio2, parse_conll
from nerrank.errors import CheckpointMismatchError, ConfigError

from test_baseline import decode_one
from toycorpus import make_corpus

HEADER_PREFIX = f"# nerrank {__version__} config "

# crf_train's settings at their config defaults; tests override what they pin
CRF = RunConfig().crf_options()


# ---------------------------------------------------------------------------
# config parsing and resolution


def test_parse_config_text_basics():
    text = "\n".join(
        [
            "# comment",
            "",
            "seed = 7",
            "train_path = data/train.conll",
            "dropout=0.3",
        ]
    )
    assert parse_config_text(text) == {
        "seed": "7",
        "train_path": "data/train.conll",
        "dropout": "0.3",
    }


def test_parse_config_rejects_junk_and_duplicates():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")
    for text in ("l2 = 0.1\nlambda = 0.5\n", "lambda = 0.5\nl2 = 0.1\n"):
        with pytest.raises(ConfigError, match="line 2: duplicate"):
            parse_config_text(text)
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_resolve_overrides_win_and_lambda_alias():
    cfg, explicit = resolve_config(
        {"seed": "1", "lambda": "0.5"}, {"seed": "2"}
    )
    assert cfg.train.seed == 2
    assert cfg.train.l2 == 0.5
    assert explicit == {"seed", "l2"}


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="zzz"):
        resolve_config({"zzz": "1"})


def test_value_coercion():
    cfg, _ = resolve_config(
        {
            "peepholes": "yes",
            "use_lstm": "false",
            "epochs": "3",
            "dropout": "0.25",
            "alpha": "none",
            "train_path": "none",
            "model_path": "m.npz",
        }
    )
    assert cfg.train.scorer.peepholes is True
    assert cfg.train.scorer.use_lstm is False
    assert cfg.train.epochs == 3
    assert cfg.train.scorer.dropout == 0.25
    assert cfg.alpha is None
    assert cfg.train_path is None
    assert cfg.model_path == "m.npz"
    for bad in ({"epochs": "three"}, {"dropout": "heavy"}, {"use_lstm": "2"}):
        with pytest.raises(ConfigError):
            resolve_config(bad)


def test_config_round_trips_through_rendering():
    cfg, _ = resolve_config(
        {"seed": "9", "alpha": "0.45", "folds": "3", "train_path": "x.conll"}
    )
    again, _ = resolve_config(parse_config_text(format_config(cfg)))
    assert again == cfg

    # every key off its default: int, float, bool, optional float, optional path
    default = parse_config_text(format_config(RunConfig()))
    changed = {}
    for key, text in default.items():
        if text in ("true", "false"):
            changed[key] = "false" if text == "true" else "true"
        elif text == "none":
            changed[key] = "0.5" if key == "alpha" else f"{key}.txt"
        elif "." in text or "e" in text:
            changed[key] = repr(float(text) / 2)
        else:
            changed[key] = str(int(text) + 2)
    changed["use_word_cnn"] = "true"  # the LSTM is off; one encoder must stay
    cfg, explicit = resolve_config(changed)
    assert explicit == set(FIELD_NAMES)
    rendered = parse_config_text(format_config(cfg))
    assert rendered == changed
    assert sum(rendered[k] != default[k] for k in default) == len(default) - 1
    again, _ = resolve_config(rendered)
    assert again == cfg


def test_config_hash_is_stable_and_sensitive():
    base, _ = resolve_config({})
    assert len(config_hash(base)) == 12
    assert int(config_hash(base), 16) >= 0
    assert config_hash(base) == config_hash(RunConfig())
    changed, _ = resolve_config({"seed": "1"})
    assert config_hash(changed) != config_hash(base)
    # pinned: the rendering, and with it every output header, must not drift
    assert config_hash(RunConfig()) == "a27a3dbc50e6"
    pinned, _ = resolve_config(
        {"seed": "9", "alpha": "0.45", "word_dim": "8", "char_cnn_filters": "4",
         "use_lstm": "false", "lambda": "0.01", "train_path": "x.conll",
         "peepholes": "on"}
    )
    assert config_hash(pinned) == "046c676665ad"
    assert len(format_config(pinned).splitlines()) == len(FIELD_NAMES) == 54


def test_default_values_are_pinned():
    cfg = RunConfig()
    assert cfg.train == TrainConfig()
    assert (cfg.folds, cfg.crf_epochs) == (5, 20)


def test_template_set_mapping():
    cfg, _ = resolve_config({"feat_word_bigrams": "false", "feat_shape": "false"})
    templates = cfg.template_set()
    assert templates.word_bigrams is False
    assert templates.shape is False
    assert templates.word_grams is True
    with_clusters = cfg.template_set({"word": "0101"})
    assert with_clusters.clusters == {"word": "0101"}


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(folds=1)
    with pytest.raises(ConfigError):
        RunConfig(alpha=1.5)
    with pytest.raises(ConfigError):
        RunConfig(bucket_width=0)
    with pytest.raises(ConfigError):
        RunConfig(n_best=0)
    with pytest.raises(ConfigError, match="0.005 search grid"):
        RunConfig(alpha=0.3333)
    with pytest.raises(ConfigError, match="alpha True is outside the 0.005 search grid"):
        RunConfig(alpha=True)
    for alpha in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match=f"alpha {alpha} is outside the 0.005 search grid"):
            RunConfig(alpha=alpha)
    with pytest.raises(ConfigError, match="seed cannot be negative, got -1"):
        resolve_config({"seed": "-1"})  # checked by the training block
    with pytest.raises(ConfigError):
        resolve_config({"epochs": "-1"})  # checked by the training block
    with pytest.raises(ConfigError):
        resolve_config({"word_cnn_window": "2"})  # checked by the scorer block
    with pytest.raises(ConfigError, match="crf_lr must be positive"):
        RunConfig(crf_lr=-0.05)
    with pytest.raises(ConfigError, match="crf_lr must be positive"):
        RunConfig(crf_lr=0.0)
    with pytest.raises(ConfigError, match="crf_l2 cannot be negative"):
        RunConfig(crf_l2=-1.0)
    for key, raw in (
        ("crf_lr", "nan"),
        ("crf_l2", "inf"),
        ("learning_rate", "nan"),
        ("l2", "nan"),
        ("lambda", "-inf"),
        ("adam_eps", "inf"),
        ("alpha", "nan"),
    ):
        with pytest.raises(ConfigError, match="expected a finite number"):
            resolve_config({}, {key: raw})


@pytest.mark.parametrize(
    "block, key, value",
    [
        (TrainConfig, "learning_rate", float("nan")),
        (TrainConfig, "epochs", 1.5),
        (ScorerConfig, "word_dim", 50.0),
        (ScorerConfig, "dropout", True),
        (RunConfig, "n_best", 2.5),
        (RunConfig, "crf_l2", float("nan")),
    ],
)
def test_config_blocks_reject_a_wrong_typed_or_non_finite_value(block, key, value):
    # library code gets the same checks as a command line or a bundle
    with pytest.raises(ConfigError, match=f"^{key}: expected "):
        block(**{key: value})


# ---------------------------------------------------------------------------
# baseline model persistence


@pytest.fixture(scope="module")
def tiny_crf():
    train = make_corpus(12, seed=5, split="train")
    templates = FeatureTemplateSet(clusters=None)
    return train, crf_train(train, templates, **dict(CRF, epochs=2, seed=5))


def test_crf_checkpoint_roundtrip(tmp_path, tiny_crf):
    train, model = tiny_crf
    path = tmp_path / "model.npz"
    save_crf(path, model, extra_meta={"version": __version__})
    loaded = load_crf(path)
    assert loaded.tags == model.tags
    assert loaded.feature_vocab == model.feature_vocab
    assert loaded.templates == model.templates
    assert np.array_equal(loaded.emit, model.emit)
    assert np.array_equal(loaded.trans, model.trans)
    sentence = train.sentences[0]
    a = decode_one(model, sentence, 5)
    b = decode_one(loaded, sentence, 5)
    assert a.candidates == b.candidates


def test_crf_checkpoint_roundtrips_non_ascii_features(tmp_path):
    # the meta is stored as UTF-8 bytes, each character as itself rather
    # than a \uXXXX escape; feature strings outside ASCII come back unchanged
    train = parse_conll("Zürich\tB-LOC\nliegt\tO\n\n東京\tB-LOC\nist\tO\nweit\tO\n")
    model = crf_train(train, FeatureTemplateSet(clusters=None), **dict(CRF, epochs=1, seed=0))
    assert "w[0]=Zürich" in model.feature_vocab and "w[0]=東京" in model.feature_vocab
    path = tmp_path / "model.npz"
    save_crf(path, model)
    with np.load(path) as archive:
        assert archive["meta"].dtype == np.uint8
        meta = archive["meta"].tobytes()
    assert "w[0]=東京".encode("utf-8") in meta and "w[0]=Zürich".encode("utf-8") in meta
    assert b"\\u" not in meta
    loaded = load_crf(path)
    assert loaded.feature_vocab == model.feature_vocab
    assert np.array_equal(loaded.emit, model.emit)


def test_crf_checkpoint_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_crf(tmp_path / "absent.npz")
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointMismatchError):
        load_crf(bad)


# ---------------------------------------------------------------------------
# full command-line pipeline


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run the whole toolchain once on a small corpus; tests inspect it."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "train": root / "train.conll",
        "dev": root / "dev.conll",
        "test": root / "test.conll",
        "model": root / "crf.npz",
        "jk": root / "jk.nbest",
        "dev_nbest": root / "dev.nbest",
        "test_nbest": root / "test.nbest",
        "bundle": root / "bundle",
        "pred": root / "pred.conll",
        "metrics": root / "metrics.txt",
    }
    for split, n in (("train", 24), ("dev", 12), ("test", 12)):
        ds = make_corpus(n, seed=3, split=split)
        paths[split].write_text(format_conll(ds), encoding="utf-8")
    fast_crf = ["--crf-epochs", "3", "--seed", "0"]
    assert main(
        ["baseline-train", "--train-path", str(paths["train"]),
         "--model-path", str(paths["model"]), *fast_crf]
    ) == EXIT_OK
    for split, out in (("dev", "dev_nbest"), ("test", "test_nbest")):
        assert main(
            ["baseline-decode", "--model-path", str(paths["model"]),
             "--input-path", str(paths[split]), "--output-path", str(paths[out]),
             "--n-best", "10"]
        ) == EXIT_OK
    assert main(
        ["jackknife", "--train-path", str(paths["train"]),
         "--output-path", str(paths["jk"]), "--folds", "2", "--n-best", "10",
         *fast_crf]
    ) == EXIT_OK
    assert main(
        ["rerank-train", "--train-nbest-path", str(paths["jk"]),
         "--dev-nbest-path", str(paths["dev_nbest"]),
         "--bundle-path", str(paths["bundle"]),
         "--word-dim", "8", "--char-dim", "6", "--lstm-hidden", "8",
         "--char-cnn-filters", "4", "--word-cnn-filters", "6",
         "--batch-size", "32", "--learning-rate", "0.01", "--dropout", "0.1",
         "--epochs", "1", "--seed", "0"]
    ) == EXIT_OK
    assert main(
        ["rerank-decode", "--bundle-path", str(paths["bundle"]),
         "--nbest-path", str(paths["test_nbest"]),
         "--output-path", str(paths["pred"])]
    ) == EXIT_OK
    return paths


def test_pipeline_outputs_have_headers(pipeline_dir):
    for name in ("jk", "dev_nbest", "test_nbest", "pred"):
        first = pipeline_dir[name].read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith(HEADER_PREFIX), name


def read_manifest(path):
    return dict(
        line.split(" = ", 1)
        for line in path.read_text(encoding="utf-8").splitlines()
        if " = " in line and not line.startswith("#")
    )


def digest_of(path):
    """12 hex of the sha256 of a file, or of a directory's files in name
    order, each as its name, NUL, its bytes."""
    h = hashlib.sha256()
    if path.is_dir():
        for f in sorted(f for f in path.iterdir() if f.is_file()):
            h.update(f.name.encode("utf-8") + b"\0" + f.read_bytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def check_manifest(path, command, inputs, outputs):
    """The manifest names exactly these inputs, with the digest of every
    input (a bundle directory included), and these outputs."""
    lines = read_manifest(path)
    assert lines["command"] == command
    assert lines["version"] == __version__
    assert len(lines["config_hash"]) == 12
    assert "config_seed" in lines
    named = {k[len("input_"):]: v for k, v in lines.items() if k.startswith("input_")}
    expected = {name: str(value) for name, value in inputs.items()}
    for name, value in inputs.items():
        expected[f"{name}_sha256"] = digest_of(value)
    assert named == expected
    assert {k: v for k, v in lines.items() if k.startswith("output_")} == {
        f"output_{name}": str(value) for name, value in outputs.items()
    }


def manifest_of(path):
    return path.parent / (path.name + ".manifest")


def test_pipeline_manifests(pipeline_dir):
    p = pipeline_dir
    check_manifest(
        manifest_of(p["model"]), "baseline-train",
        {"train_path": p["train"]}, {"model_path": p["model"]},
    )
    for split, out in (("dev", "dev_nbest"), ("test", "test_nbest")):
        check_manifest(
            manifest_of(p[out]), "baseline-decode",
            {"model_path": p["model"], "input_path": p[split]}, {"output_path": p[out]},
        )
    check_manifest(
        manifest_of(p["jk"]), "jackknife",
        {"train_path": p["train"]}, {"output_path": p["jk"]},
    )
    check_manifest(
        manifest_of(p["bundle"]), "rerank-train",
        {"train_nbest_path": p["jk"], "dev_nbest_path": p["dev_nbest"]},
        {"bundle_path": p["bundle"]},
    )
    check_manifest(
        manifest_of(p["pred"]), "rerank-decode",
        {"bundle_path": p["bundle"], "nbest_path": p["test_nbest"]},
        {"output_path": p["pred"]},
    )


def test_manifest_bundle_digest_follows_its_contents(pipeline_dir, tmp_path, capsys):
    bundle, pred = tmp_path / "bundle", tmp_path / "p.conll"
    shutil.copytree(pipeline_dir["bundle"], bundle)
    argv = ["rerank-decode", "--bundle-path", str(bundle),
            "--nbest-path", str(pipeline_dir["test_nbest"]), "--output-path", str(pred)]
    digests = []
    for _ in range(2):
        assert main(argv) == EXIT_OK
        digests.append(read_manifest(manifest_of(pred))["input_bundle_path_sha256"])
        _edit_weights(lambda a: a.update(head_b=a["head_b"] + 1.0))(bundle)
    capsys.readouterr()
    # the same files under another path give the same digest
    assert digests[0] == read_manifest(manifest_of(pipeline_dir["pred"]))["input_bundle_path_sha256"]
    assert digests[1] != digests[0]


def test_manifests_record_optional_inputs(pipeline_dir, tmp_path, capsys):
    """Clusters, embeddings and the alpha-search bundle are inputs too."""
    p = pipeline_dir
    clusters = tmp_path / "clusters.txt"
    clusters.write_text("0101\tJohnar\n0110\tvisited\n", encoding="utf-8")
    embeddings = tmp_path / "emb.txt"
    embeddings.write_text("Johnar " + " ".join(["0.5"] * 8) + "\n", encoding="utf-8")
    model, jk = tmp_path / "crf.npz", tmp_path / "jk.nbest"
    bundle, alpha = tmp_path / "bundle", tmp_path / "alpha.txt"
    fast_crf = ["--crf-epochs", "1", "--seed", "0", "--clusters-path", str(clusters)]
    assert main(
        ["baseline-train", "--train-path", str(p["train"]),
         "--model-path", str(model), *fast_crf]
    ) == EXIT_OK
    check_manifest(
        manifest_of(model), "baseline-train",
        {"train_path": p["train"], "clusters_path": clusters}, {"model_path": model},
    )
    assert main(
        ["jackknife", "--train-path", str(p["train"]), "--output-path", str(jk),
         "--folds", "2", "--n-best", "3", *fast_crf]
    ) == EXIT_OK
    check_manifest(
        manifest_of(jk), "jackknife",
        {"train_path": p["train"], "clusters_path": clusters}, {"output_path": jk},
    )
    assert main(
        ["rerank-train", "--train-nbest-path", str(p["jk"]),
         "--dev-nbest-path", str(p["dev_nbest"]), "--bundle-path", str(bundle),
         "--embeddings-path", str(embeddings), "--word-dim", "8", "--char-dim", "4",
         "--lstm-hidden", "4", "--char-cnn-filters", "3", "--word-cnn-filters", "4",
         "--epochs", "0"]
    ) == EXIT_OK
    check_manifest(
        manifest_of(bundle), "rerank-train",
        {"train_nbest_path": p["jk"], "dev_nbest_path": p["dev_nbest"],
         "embeddings_path": embeddings},
        {"bundle_path": bundle},
    )
    assert main(
        ["alpha-search", "--bundle-path", str(p["bundle"]),
         "--nbest-path", str(p["dev_nbest"]), "--output-path", str(alpha)]
    ) == EXIT_OK
    capsys.readouterr()
    check_manifest(
        manifest_of(alpha), "alpha-search",
        {"bundle_path": p["bundle"], "nbest_path": p["dev_nbest"]}, {"output_path": alpha},
    )


# command -> (its arguments without an output, the inputs its manifest names)
PRINTING_COMMANDS = {
    "eval": lambda p: (
        ["eval", "--gold-path", str(p["test"]), "--pred-path", str(p["pred"])],
        {"gold_path": p["test"], "pred_path": p["pred"]},
    ),
    "oracle": lambda p: (
        ["oracle", "--nbest-path", str(p["test_nbest"])], {"nbest_path": p["test_nbest"]}
    ),
    "collapse": lambda p: (
        ["collapse", "--nbest-path", str(p["test_nbest"])], {"nbest_path": p["test_nbest"]}
    ),
    "alpha-search": lambda p: (
        ["alpha-search", "--bundle-path", str(p["bundle"]), "--nbest-path", str(p["dev_nbest"])],
        {"bundle_path": p["bundle"], "nbest_path": p["dev_nbest"]},
    ),
}


@pytest.mark.parametrize("mode", ["output-path", "print", "print-with-manifest-path"])
@pytest.mark.parametrize("command", sorted(PRINTING_COMMANDS))
def test_printing_command_manifests(pipeline_dir, tmp_path, monkeypatch, capsys, command, mode):
    """With an output path the manifest sits next to it; printing writes
    none, unless --manifest-path names one, which then has no output line."""
    monkeypatch.chdir(tmp_path)
    argv, inputs = PRINTING_COMMANDS[command](pipeline_dir)
    out, manifest = tmp_path / "out.txt", tmp_path / "run.manifest"
    if mode == "output-path":
        argv += ["--output-path", str(out)]
    elif mode == "print-with-manifest-path":
        argv += ["--manifest-path", str(manifest)]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    if mode == "output-path":
        assert sorted(tmp_path.iterdir()) == [out, manifest_of(out)]
        check_manifest(manifest_of(out), command, inputs, {"output_path": out})
    elif mode == "print":
        assert printed
        assert list(tmp_path.iterdir()) == []
    else:
        assert printed
        assert list(tmp_path.iterdir()) == [manifest]
        check_manifest(manifest, command, inputs, {})


def test_predictions_parse_and_align(pipeline_dir):
    gold = parse_conll(pipeline_dir["test"].read_text(encoding="utf-8"))
    pred = parse_conll(pipeline_dir["pred"].read_text(encoding="utf-8"))
    assert len(pred) == len(gold)
    for (gs, _), (ps, _) in zip(gold, pred):
        assert gs.surfaces == ps.surfaces


def test_eval_identical_files_reports_perfect(pipeline_dir, capsys):
    rc = main(
        ["eval", "--gold-path", str(pipeline_dir["test"]),
         "--pred-path", str(pipeline_dir["test"])]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "F1 = 100.00" in out
    assert "ssa = 100.00" in out


def test_eval_rejects_predictions_of_other_tokens(tmp_path, capsys):
    # same labels, so the spans alone would score F1 100
    gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
    gold.write_text("Rome\tB-LOC\nis\tO\n\nParis\tB-LOC\nwas\tO\n", encoding="utf-8")
    pred.write_text("Rome\tB-LOC\nis\tO\n\nParis\tB-LOC\nis\tO\n", encoding="utf-8")
    rc = main(["eval", "--gold-path", str(gold), "--pred-path", str(pred)])
    captured = capsys.readouterr()
    assert rc == EXIT_FAILURE
    assert "F1" not in captured.out
    assert "corpus misalignment: sentence 1 token 1 is 'was' in gold, 'is' predicted" in captured.err


def test_eval_writes_metrics_file(pipeline_dir, capsys):
    rc = main(
        ["eval", "--gold-path", str(pipeline_dir["test"]),
         "--pred-path", str(pipeline_dir["pred"]),
         "--output-path", str(pipeline_dir["metrics"])]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    text = pipeline_dir["metrics"].read_text(encoding="utf-8")
    assert text.startswith(HEADER_PREFIX)
    assert "\nF1 = " in text
    assert "ssa_len_5 = " in text
    # the file is the header line plus exactly what was printed
    assert text.split("\n", 1)[1] == out


def test_alpha_zero_decode_matches_baseline_top_candidates(pipeline_dir, tmp_path):
    out = tmp_path / "alpha0.conll"
    rc = main(
        ["rerank-decode", "--bundle-path", str(pipeline_dir["bundle"]),
         "--nbest-path", str(pipeline_dir["test_nbest"]),
         "--output-path", str(out), "--alpha", "0"]
    )
    assert rc == EXIT_OK
    corpus = read_nbest(pipeline_dir["test_nbest"])
    top = [normalize_to_bio2(cs.candidates[0][0]) for cs in corpus.sets]
    expected = format_conll(Dataset(list(corpus.sentences), top))
    body = out.read_text(encoding="utf-8").split("\n", 1)[1]
    assert body == expected


def test_decode_runs_are_byte_identical(pipeline_dir, tmp_path):
    out = tmp_path / "pred.conll"
    outs = []
    for _ in range(2):
        assert main(
            ["rerank-decode", "--bundle-path", str(pipeline_dir["bundle"]),
             "--nbest-path", str(pipeline_dir["test_nbest"]),
             "--output-path", str(out)]
        ) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_collapse_prints_patterns(pipeline_dir, capsys):
    rc = main(["collapse", "--nbest-path", str(pipeline_dir["dev_nbest"])])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    first = out.splitlines()[0].split("\t")
    assert first[0] == "0" and first[1] == "0"
    assert len(first) == 3 and first[2]


def test_oracle_curves_csv(pipeline_dir, capsys):
    rc = main(["oracle", "--nbest-path", str(pipeline_dir["test_nbest"])])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n,oba,obf,owf"
    assert lines[1].startswith("1,")


def test_oracle_on_an_empty_nbest_file_writes_only_the_header(pipeline_dir, tmp_path, capsys):
    empty_conll = tmp_path / "empty.conll"
    empty_conll.write_text("", encoding="utf-8")
    empty_nbest = tmp_path / "empty.nbest"
    assert main(
        ["baseline-decode", "--model-path", str(pipeline_dir["model"]),
         "--input-path", str(empty_conll), "--output-path", str(empty_nbest)]
    ) == EXIT_OK
    capsys.readouterr()
    assert main(["oracle", "--nbest-path", str(empty_nbest)]) == EXIT_OK
    assert capsys.readouterr().out == "n,oba,obf,owf\n"
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--nbest-path", str(empty_nbest), "--output-path", str(out)]
    assert main(argv) == EXIT_OK
    header, *rest = out.read_text(encoding="utf-8").splitlines()
    assert header.startswith(HEADER_PREFIX)
    assert rest == ["n,oba,obf,owf"]


def test_alpha_search_reports_grid(pipeline_dir, capsys):
    rc = main(
        ["alpha-search", "--bundle-path", str(pipeline_dir["bundle"]),
         "--nbest-path", str(pipeline_dir["dev_nbest"])]
    )
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    values = dict(line.split(" = ") for line in out.splitlines())
    assert values["grid_points"] == "201"
    alpha = float(values["alpha"])
    assert abs(alpha * 200 - round(alpha * 200)) < 1e-9


# ---------------------------------------------------------------------------
# failure exit codes


def test_missing_input_file_exit_code(tmp_path, capsys):
    rc = main(
        ["baseline-train", "--train-path", str(tmp_path / "absent.conll"),
         "--model-path", str(tmp_path / "m.npz")]
    )
    capsys.readouterr()
    assert rc == EXIT_MISSING_FILE


# the keys each command names when run with none set, in order
MISSING_KEYS = {
    "baseline-train": "train_path, model_path",
    "baseline-decode": "model_path, input_path, output_path",
    "jackknife": "train_path, output_path",
    "collapse": "nbest_path",
    "rerank-train": "train_nbest_path, dev_nbest_path, bundle_path",
    "rerank-decode": "bundle_path, nbest_path, output_path",
    "eval": "gold_path, pred_path",
    "oracle": "nbest_path",
    "alpha-search": "bundle_path, nbest_path",
}


@pytest.mark.parametrize("command", sorted(MISSING_KEYS))
def test_missing_required_key_exit_code(capsys, command):
    assert main([command]) == EXIT_BAD_CONFIG
    *_, last = capsys.readouterr().err.splitlines()
    assert last == (
        f"nerrank: error: {command}: missing required config key(s): {MISSING_KEYS[command]}"
    )


def test_unknown_config_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_option = 1\n", encoding="utf-8")
    rc = main(["oracle", "--config", str(cfg), "--nbest-path", "x"])
    capsys.readouterr()
    assert rc == EXIT_BAD_CONFIG


def test_negative_seed_exits_3(tmp_path, capsys):
    train = tmp_path / "t.conll"
    train.write_text(CONLL, encoding="utf-8")
    rc = main(["baseline-train", "--train-path", str(train),
               "--model-path", str(tmp_path / "m.npz"), "--seed", "-1"])
    *_, last = capsys.readouterr().err.splitlines()
    assert rc == EXIT_BAD_CONFIG
    assert last == "nerrank: error: seed cannot be negative, got -1"


def _exit_code(argv) -> int:
    """main's status, or the status of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("given", ["config-file", "command-line"])
def test_unknown_key_exits_3_either_way(tmp_path, capsys, given):
    argv = ["eval", "--gold-path", "g.conll", "--pred-path", "p.conll"]
    if given == "config-file":
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--bogus-key", "1"]
    assert _exit_code(argv) == EXIT_BAD_CONFIG
    *_, last = capsys.readouterr().err.splitlines()
    assert last.startswith("nerrank: error: ") and "bogus" in last


@pytest.mark.parametrize(
    "argv, usage, message",
    [
        (["eval", "--gold-path"], "usage: nerrank eval ", "argument --gold-path: expected one argument"),
        (["no-such-command"], "usage: nerrank ", "invalid choice: 'no-such-command'"),
        ([], "usage: nerrank ", "the following arguments are required: command"),
    ],
    ids=["missing-value", "unknown-command", "missing-command"],
)
def test_usage_errors_exit_3_with_usage(capsys, argv, usage, message):
    assert _exit_code(argv) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    first, *rest = captured.err.splitlines()
    assert first.startswith(usage)
    assert rest[-1].startswith("nerrank: error: ") and message in rest[-1]


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_exits_0(capsys, argv):
    assert _exit_code(argv) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: nerrank")


def test_checkpoint_mismatch_exit_code(pipeline_dir, tmp_path, capsys):
    rc = main(
        ["rerank-decode", "--bundle-path", str(pipeline_dir["bundle"]),
         "--nbest-path", str(pipeline_dir["test_nbest"]),
         "--output-path", str(tmp_path / "p.conll"), "--lstm-hidden", "500"]
    )
    capsys.readouterr()
    assert rc == EXIT_CHECKPOINT


def test_bundle_check_covers_the_scorer_architecture(pipeline_dir, tmp_path, capsys):
    assert ScorerConfig.arch_keys() == (
        "word_dim", "char_dim", "lstm_hidden", "char_cnn_filters",
        "word_cnn_filters", "char_cnn_window", "word_cnn_window",
        "use_lstm", "use_char_cnn", "use_word_cnn", "peepholes",
    )
    # training-only settings may differ from the bundle's
    rc = main(
        ["rerank-decode", "--bundle-path", str(pipeline_dir["bundle"]),
         "--nbest-path", str(pipeline_dir["test_nbest"]),
         "--output-path", str(tmp_path / "p.conll"),
         "--dropout", "0.5", "--freeze-embeddings", "true"]
    )
    capsys.readouterr()
    assert rc == EXIT_OK


def _edit_meta(edit):
    def apply(bundle):
        meta_path = bundle / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        edit(meta)
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
    return apply


def _edit_weights(edit):
    def apply(bundle):
        with np.load(bundle / "weights.bin") as archive:
            arrays = {name: archive[name] for name in archive.files}
        edit(arrays)
        with open(bundle / "weights.bin", "wb") as fh:
            np.savez(fh, **arrays)
    return apply


def _write(name, data: bytes):
    return lambda bundle: (bundle / name).write_bytes(data)


BUNDLE_MUTATIONS = {
    "meta-not-json": _write("meta.json", b"{not json"),
    "meta-not-object": _write("meta.json", b"[]"),
    "meta-missing-key": _edit_meta(lambda m: m.pop("char_pad")),
    "meta-unknown-key": _edit_meta(lambda m: m.update(extra=1)),
    "config-missing-key": _edit_meta(lambda m: m["config"]["scorer"].pop("word_dim")),
    "config-unknown-key": _edit_meta(lambda m: m["config"].update(char_filters=4)),
    "vocab-missing-key": _edit_meta(lambda m: m["vocab"].pop("chars")),
    # both keep the vocabulary's size, so the weights still fit it
    "vocab-duplicate-word": _edit_meta(
        lambda m: m["vocab"].update(words=m["vocab"]["words"][:-1] + m["vocab"]["words"][-2:-1])
    ),
    "vocab-reserved-moved": _edit_meta(lambda m: m["vocab"]["words"].reverse()),
    "vocab-word-not-string": _edit_meta(lambda m: m["vocab"]["words"].__setitem__(-1, 5)),
    "history-unknown-key": _edit_meta(lambda m: m["history"][0].update(loss=0.1)),
    "history-epoch-not-int": _edit_meta(lambda m: m["history"][0].update(epoch="x")),
    "history-f1-not-number": _edit_meta(lambda m: m["history"][0].update(dev_f1="high")),
    # each would iterate as an empty history
    "history-string": _edit_meta(lambda m: m.update(history="")),
    "history-object": _edit_meta(lambda m: m.update(history={})),
    "provenance-not-object": _edit_meta(lambda m: m.update(provenance=7)),
    "alpha-off-grid": _edit_meta(lambda m: m.update(alpha=0.3333)),
    "alpha-bool": _edit_meta(lambda m: m.update(alpha=True)),
    # json writes these as NaN and Infinity and reads them back as floats
    "alpha-nan": _edit_meta(lambda m: m.update(alpha=float("nan"))),
    "alpha-inf": _edit_meta(lambda m: m.update(alpha=float("inf"))),
    "seed-negative": _edit_meta(lambda m: m["config"].update(seed=-1)),
    "config-learning-rate-nan": _edit_meta(lambda m: m["config"].update(learning_rate=float("nan"))),
    "config-l2-inf": _edit_meta(lambda m: m["config"].update(l2=float("inf"))),
    "config-epochs-fraction": _edit_meta(lambda m: m["config"].update(epochs=1.5)),
    "config-batch-size-bool": _edit_meta(lambda m: m["config"].update(batch_size=True)),
    "char-pad-float": _edit_meta(lambda m: m.update(char_pad=3.5)),
    "char-pad-bool": _edit_meta(lambda m: m.update(char_pad=True)),
    "char-pad-above-cap": _edit_meta(lambda m: m.update(char_pad=m["config"]["char_pad_cap"] + 1)),
    "weights-garbage": _write("weights.bin", b"not a checkpoint"),
    "weights-nrkc": _write("weights.bin", b"NRKC" + struct.pack("<II", 1, 0) + b"\0"),
    "weights-missing": lambda bundle: (bundle / "weights.bin").unlink(),
    "param-renamed": _edit_weights(lambda a: a.update(head_v=a.pop("head_w"))),
    "param-missing": _edit_weights(lambda a: a.pop("head_b")),
    "param-reshaped": _edit_weights(lambda a: a.update(head_w=a["head_w"][:-1])),
    "weights-nan": _edit_weights(lambda a: a["lstm_w1"].fill(np.nan)),
    "weights-inf": _edit_weights(lambda a: a["lstm_w1"].fill(np.inf)),
}
# the reason a mutated bundle's error line must give, where a test pins it
BUNDLE_MESSAGES = {
    "alpha-nan": "alpha nan is outside the 0.005 search grid",
    "alpha-inf": "alpha inf is outside the 0.005 search grid",
    "config-learning-rate-nan": "learning_rate: expected a finite number, got nan",
    "config-l2-inf": "l2: expected a finite number, got inf",
    "config-epochs-fraction": "epochs: expected an integer, got 1.5",
    "config-batch-size-bool": "batch_size: expected an integer, got True",
    "vocab-word-not-string": "word vocabulary holds 5, which is not a string",
    "history-epoch-not-int": "history epoch: expected an integer, got 'x'",
    "history-f1-not-number": "history dev_f1: expected a finite number, got 'high'",
    "history-string": "history: expected a JSON array, got ''",
    "history-object": "history: expected a JSON array, got {}",
    "provenance-not-object": "provenance: expected a JSON object, got 7",
    "weights-nan": "parameter 'lstm_w1' holds a non-finite value",
    "weights-inf": "parameter 'lstm_w1' holds a non-finite value",
}


@pytest.mark.parametrize("mutation", sorted(BUNDLE_MUTATIONS))
def test_malformed_bundle_exit_code(pipeline_dir, tmp_path, capsys, mutation):
    bundle = tmp_path / "bundle"
    shutil.copytree(pipeline_dir["bundle"], bundle)
    BUNDLE_MUTATIONS[mutation](bundle)
    rc = main(
        ["rerank-decode", "--bundle-path", str(bundle),
         "--nbest-path", str(pipeline_dir["test_nbest"]),
         "--output-path", str(tmp_path / "p.conll")]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_CHECKPOINT
    assert str(bundle) in err
    assert BUNDLE_MESSAGES.get(mutation, "") in err


def _edit_crf(edit, encode=lambda text: np.frombuffer(text.encode(), np.uint8)):
    def apply(model):
        with np.load(model) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = json.loads(arrays["meta"].tobytes().decode())
        edit(arrays, meta)
        arrays["meta"] = encode(json.dumps(meta))
        with open(model, "wb") as fh:
            np.savez(fh, **arrays)
    return apply


CRF_MUTATIONS = {
    "garbage": lambda model: model.write_bytes(b"not a checkpoint"),
    "meta-missing-key": _edit_crf(lambda a, m: m.pop("templates")),
    "emit-reshaped": _edit_crf(lambda a, m: a.update(emit=a["emit"][:-1])),
    "begin-reshaped": _edit_crf(lambda a, m: a.update(begin=a["begin"][:1])),
    "end-reshaped": _edit_crf(lambda a, m: a.update(end=a["end"][:, None])),
    "emit-nan": _edit_crf(lambda a, m: a.update(emit=np.full_like(a["emit"], np.nan))),
    "tag-duplicate": _edit_crf(lambda a, m: m.update(tags=m["tags"][:1] + m["tags"][:-1])),
    "tag-malformed": _edit_crf(lambda a, m: m.update(tags=["X-FOO"] + m["tags"][1:])),
    "offsets-float": _edit_crf(lambda a, m: m["templates"].update(offsets=[0.5])),
    "clusters-not-a-map": _edit_crf(lambda a, m: m["templates"].update(clusters=[1])),
    "switch-not-bool": _edit_crf(lambda a, m: m["templates"].update(shape="yes")),
    # every shape still fits, but no featurized string would match an int
    "features-not-strings": _edit_crf(lambda a, m: m.update(features=list(range(len(m["features"]))))),
    # the older format: the same JSON as a numpy unicode string
    "meta-unicode-string": _edit_crf(lambda a, m: None, encode=np.array),
    # a string or an object would iterate as a list of its characters or keys
    "nll-history-string": _edit_crf(lambda a, m: m.update(nll_history="abc")),
    "nll-history-object": _edit_crf(lambda a, m: m.update(nll_history={"a": 1})),
    "nll-history-not-numbers": _edit_crf(lambda a, m: m.update(nll_history=[None, "x"])),
    # json writes it as NaN and reads it back as a float
    "nll-history-nan": _edit_crf(lambda a, m: m["nll_history"].append(float("nan"))),
}
CRF_MESSAGES = {
    "meta-unicode-string": "not UTF-8 bytes (an older format: retrain it)",
    "nll-history-string": "nll_history: expected a JSON array, got 'abc'",
    "nll-history-object": "nll_history: expected a JSON array, got {'a': 1}",
    "nll-history-not-numbers": "nll_history: expected a finite number, got None",
    "nll-history-nan": "nll_history: expected a finite number, got nan",
}


@pytest.mark.parametrize("mutation", sorted(CRF_MUTATIONS))
def test_malformed_crf_exit_code(pipeline_dir, tmp_path, capsys, mutation):
    model = tmp_path / "crf.npz"
    shutil.copy(pipeline_dir["model"], model)
    CRF_MUTATIONS[mutation](model)
    rc = main(
        ["baseline-decode", "--model-path", str(model),
         "--input-path", str(pipeline_dir["test"]),
         "--output-path", str(tmp_path / "t.nbest")]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_CHECKPOINT
    assert str(model) in err
    assert CRF_MESSAGES.get(mutation, "") in err


# ---------------------------------------------------------------------------
# malformed text inputs: each mutation of a valid input exits 2-5 (never 0,
# 1 or a traceback) and names the line at fault, or the key where the
# config values carry no line


def _replaced(base: str, at: int, line: str | None) -> str:
    """`base` with its line `at` (1-based) replaced, or deleted for None."""
    lines = base.split("\n")
    lines[at - 1 : at] = [] if line is None else [line]
    return "\n".join(lines)


def _inserted(base: str, at: int, line: str) -> str:
    """`base` with `line` inserted so that it becomes line `at`."""
    lines = base.split("\n")
    lines.insert(at - 1, line)
    return "\n".join(lines)


def _latin1(base: str, at: int) -> bytes:
    """`base` with a non-UTF-8 byte on line `at`."""
    return _replaced(base, at, "\xfc" + base.split("\n")[at - 1]).encode("latin-1")


NBEST = (
    "#SENT 0\n"
    "TOKENS\tJohn\tvisited\tParis\n"
    "GOLD\tB-PER\tO\tB-LOC\n"
    "CAND\t6.0e-01\tB-PER\tO\tB-LOC\n"
    "CAND\t3.0e-01\tB-PER\tO\tO\n"
)

NBEST_MUTATIONS = {
    "tokens-repeated": (_inserted(NBEST, 3, "TOKENS\tJohn\tvisited\tRome"), "line 3"),
    "tokens-repeated-other-length": (_inserted(NBEST, 3, "TOKENS\tJohn\tslept"), "line 3"),
    "gold-repeated": (_inserted(NBEST, 4, "GOLD\tO\tO\tO"), "line 4"),
    "token-empty": (_replaced(NBEST, 2, "TOKENS\tJohn\t\tParis"), "line 2"),
    "token-with-space": (_replaced(NBEST, 2, "TOKENS\tJohn\tvisited\tSao Paulo"), "line 2"),
    "tokens-missing": (_replaced(NBEST, 2, None), "line 2"),
    "header-missing": (_replaced(NBEST, 1, None), "line 1"),
    "header-malformed": (_replaced(NBEST, 1, "#SENT zero"), "line 1"),
    "header-id-two-signs": (_replaced(NBEST, 1, "#SENT --5"), "line 1"),
    "header-id-superscript": (_replaced(NBEST, 1, "#SENT \u00b2"), "line 1"),
    "id-repeated": (NBEST + "\n#SENT 0\nTOKENS\tx\nCAND\t1.0\tO\n", "line 7"),
    "kind-unknown": (_inserted(NBEST, 3, "POS\tNNP\tVBD\tNNP"), "line 3"),
    "gold-short": (_replaced(NBEST, 3, "GOLD\tB-PER\tO"), "line 3"),
    "cand-short": (_replaced(NBEST, 4, "CAND\t6.0e-01\tB-PER\tO"), "line 4"),
    "tag-malformed": (_replaced(NBEST, 4, "CAND\t6.0e-01\tB-PER\tO\tX-LOC"), "line 4"),
    "probability-bad": (_replaced(NBEST, 4, "CAND\tmany\tB-PER\tO\tB-LOC"), "line 4"),
    "probability-zero": (_replaced(NBEST, 4, "CAND\t0.0\tB-PER\tO\tB-LOC"), "line 4"),
    "probabilities-over-one": (_replaced(NBEST, 4, "CAND\t0.9\tB-PER\tO\tB-LOC"), "line 1"),
    "candidates-missing": (_replaced(_replaced(NBEST, 5, None), 4, None), "line 1"),
    "header-prefix": (_replaced(NBEST, 1, "#SENTX 5"), "line 1"),
    "not-utf8": (_latin1(NBEST, 2), "line 2"),
}

CONLL = "John B-PER\nvisited O\nParis B-LOC\n"

CONLL_MUTATIONS = {
    "one-column": (_replaced(CONLL, 2, "visited"), "line 2"),
    "tag-malformed": (_replaced(CONLL, 2, "visited X-O"), "line 2"),
    "type-unknown": (_replaced(CONLL, 3, "Paris B-CITY"), "line 3"),
    "type-missing": (_replaced(CONLL, 3, "Paris B-"), "line 3"),
    "not-utf8": (_latin1(CONLL, 3), "line 3"),
}

CLUSTERS = "0101\tJohnar\n0110\tvisited\n"

CLUSTER_MUTATIONS = {
    "one-column": (_replaced(CLUSTERS, 2, "0110"), "line 2"),
    "not-utf8": (_latin1(CLUSTERS, 2), "line 2"),
}

EMBEDDINGS = "Johnar " + " ".join(["0.5"] * 8) + "\nvisited " + " ".join(["-0.25"] * 8) + "\n"

EMBEDDING_MUTATIONS = {
    "value-nan": (_replaced(EMBEDDINGS, 2, "visited nan" + " 0.5" * 7), "line 2"),
    "value-inf": (_replaced(EMBEDDINGS, 1, "Johnar" + " 0.5" * 7 + " -inf"), "line 1"),
    "value-malformed": (_replaced(EMBEDDINGS, 2, "visited 0.5x" + " 0.5" * 7), "line 2"),
    "row-short": (_replaced(EMBEDDINGS, 2, "visited" + " 0.5" * 7), "line 2"),
    "header-dimension": (_inserted(EMBEDDINGS, 1, "2 6"), "line 1"),
    "not-utf8": (_latin1(EMBEDDINGS, 2), "line 2"),
}

CONFIG = "seed = 1\nn_best = 5\n"

CONFIG_MUTATIONS = {
    "no-equals": (_replaced(CONFIG, 1, "seed 1"), "line 1"),
    "key-empty": (_replaced(CONFIG, 2, "= 5"), "line 2"),
    "key-repeated": (_inserted(CONFIG, 2, "seed = 2"), "line 2"),
    "alias-after-key": (CONFIG + "l2 = 0.1\nlambda = 0.5\n", "line 4"),
    "key-after-alias": (CONFIG + "lambda = 0.5\nl2 = 0.1\n", "line 4"),
    "key-unknown": (_replaced(CONFIG, 2, "nbest = 5"), "nbest"),
    "int-malformed": (_replaced(CONFIG, 1, "seed = one"), "seed"),
    "float-nan": (_inserted(CONFIG, 1, "crf_lr = nan"), "crf_lr"),
    "bool-malformed": (_inserted(CONFIG, 1, "use_lstm = maybe"), "use_lstm"),
    "not-utf8": (_latin1(CONFIG, 2), "line 2"),
}

# kind -> (valid input, its mutations, the command that reads it)
TEXT_INPUTS = {
    "nbest": (NBEST, NBEST_MUTATIONS, lambda bad, p, tmp: ["oracle", "--nbest-path", bad]),
    "conll": (
        CONLL, CONLL_MUTATIONS, lambda bad, p, tmp: ["eval", "--gold-path", bad, "--pred-path", bad]
    ),
    "clusters": (
        CLUSTERS,
        CLUSTER_MUTATIONS,
        lambda bad, p, tmp: [
            "baseline-train", "--train-path", str(p["train"]), "--clusters-path", bad,
            "--model-path", str(tmp / "crf.npz"), "--crf-epochs", "1",
        ],
    ),
    "embeddings": (
        EMBEDDINGS,
        EMBEDDING_MUTATIONS,
        lambda bad, p, tmp: [
            "rerank-train", "--train-nbest-path", str(p["jk"]),
            "--dev-nbest-path", str(p["dev_nbest"]), "--bundle-path", str(tmp / "bundle"),
            "--embeddings-path", bad, "--word-dim", "8", "--char-dim", "4",
            "--lstm-hidden", "4", "--char-cnn-filters", "3", "--word-cnn-filters", "4",
            "--epochs", "0",
        ],
    ),
    "config": (
        CONFIG,
        CONFIG_MUTATIONS,
        lambda bad, p, tmp: [
            "eval", "--config", bad, "--gold-path", str(p["test"]), "--pred-path", str(p["test"]),
        ],
    ),
}


def _run_on_input(kind, content, pipeline_dir, tmp_path, capsys):
    bad = tmp_path / f"input.{kind}"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    rc = main(TEXT_INPUTS[kind][2](str(bad), pipeline_dir, tmp_path))
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(TEXT_INPUTS))
def test_unmutated_text_inputs_are_accepted(pipeline_dir, tmp_path, capsys, kind):
    rc, err = _run_on_input(kind, TEXT_INPUTS[kind][0], pipeline_dir, tmp_path, capsys)
    assert rc == EXIT_OK, err


@pytest.mark.parametrize(
    "kind, mutation",
    [(kind, name) for kind, (_, table, _) in sorted(TEXT_INPUTS.items()) for name in sorted(table)],
)
def test_malformed_text_input_exit_code(pipeline_dir, tmp_path, capsys, kind, mutation):
    content, names = TEXT_INPUTS[kind][1][mutation]
    rc, err = _run_on_input(kind, content, pipeline_dir, tmp_path, capsys)
    assert rc in (EXIT_MISSING_FILE, EXIT_BAD_CONFIG, EXIT_CHECKPOINT, EXIT_BAD_DATA), err
    assert "nerrank: error:" in err and names in err, err


def test_missing_bundle_directory_exit_code(pipeline_dir, tmp_path, capsys):
    rc = main(
        ["rerank-decode", "--bundle-path", str(tmp_path / "absent"),
         "--nbest-path", str(pipeline_dir["test_nbest"]),
         "--output-path", str(tmp_path / "p.conll")]
    )
    capsys.readouterr()
    assert rc == EXIT_MISSING_FILE


def test_off_grid_alpha_is_a_config_error(tmp_path, capsys):
    rc = main(
        ["rerank-decode", "--bundle-path", str(tmp_path / "absent"),
         "--nbest-path", "x", "--output-path", "y", "--alpha", "0.3333"]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_BAD_CONFIG
    assert "0.005 search grid" in err


def test_malformed_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.nbest"
    bad.write_text("garbage\n", encoding="utf-8")
    rc = main(["oracle", "--nbest-path", str(bad)])
    capsys.readouterr()
    assert rc == EXIT_BAD_DATA


def test_alpha_search_without_gold_exit_code(pipeline_dir, tmp_path, capsys):
    text = pipeline_dir["dev_nbest"].read_text(encoding="utf-8")
    no_gold = tmp_path / "no_gold.nbest"
    no_gold.write_text(
        "".join(l for l in text.splitlines(True) if not l.startswith("GOLD")),
        encoding="utf-8",
    )
    rc = main(
        ["alpha-search", "--bundle-path", str(pipeline_dir["bundle"]),
         "--nbest-path", str(no_gold)]
    )
    err = capsys.readouterr().err
    assert rc == EXIT_FAILURE
    assert "missing for sentence(s) [0, 1, 2, 3, 4]" in err


def _decode_with_model(model, conll, tmp_path):
    return ["baseline-decode", "--model-path", str(model), "--input-path", str(conll),
            "--output-path", str(tmp_path / "t.nbest")]


def test_directory_input_exit_code(tmp_path, capsys):
    gold = tmp_path / "g.conll"
    gold.write_text(CONLL, encoding="utf-8")
    for argv in (
        ["eval", "--gold-path", str(tmp_path), "--pred-path", str(tmp_path)],
        _decode_with_model(tmp_path, gold, tmp_path),
    ):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == EXIT_MISSING_FILE, err
        assert err.startswith("nerrank: error:") and "Traceback" not in err


@pytest.mark.parametrize("side", ["input", "output", "model"])
def test_path_through_a_file_exit_code(tmp_path, capsys, side):
    gold = tmp_path / "g.conll"
    gold.write_text(CONLL, encoding="utf-8")
    argv = ["eval", "--gold-path", str(gold), "--pred-path", str(gold)]
    if side == "input":
        argv[2] = str(gold / "x")
    elif side == "output":
        argv += ["--output-path", str(gold / "out")]
    else:
        argv = _decode_with_model(gold / "crf.npz", gold, tmp_path)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING_FILE
    assert err.startswith("nerrank: error:") and "Not a directory" in err


def test_unreadable_input_exit_code(tmp_path, monkeypatch, capsys):
    def denied(path):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("nerrank.cli.read_text", denied)
    rc = main(["eval", "--gold-path", "g.conll", "--pred-path", "p.conll"])
    err = capsys.readouterr().err
    assert rc == EXIT_MISSING_FILE
    assert err.startswith("nerrank: error:") and "Permission denied" in err


def test_non_utf8_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "latin1.conll"
    bad.write_bytes("Bern\tB-LOC\n\r\nZürich\tB-LOC\n".encode("latin-1"))
    rc = main(["eval", "--gold-path", str(bad), "--pred-path", str(bad)])
    err = capsys.readouterr().err
    assert rc == EXIT_BAD_DATA
    assert "utf-8" in err
    assert "line 3" in err
    assert str(bad) in err
    assert "0xfc" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_each_command_logs_its_wall_time_outside_the_manifest(pipeline_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="nerrank")
    out = tmp_path / "oracle.csv"
    argv = ["oracle", "--nbest-path", str(pipeline_dir["test_nbest"]), "--output-path", str(out)]
    assert main(argv) == EXIT_OK
    assert re.fullmatch(r"oracle done in \d+\.\d{3} s", caplog.records[-1].getMessage())
    assert "done in" not in manifest_of(out).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# start-up imports: each command loads only what it runs

SRC = Path(nerrank.__file__).resolve().parents[1]
# a fresh interpreter imports the CLI, runs the given command (if any),
# and prints its exit status and loaded modules as the last stdout line
IMPORT_PROBE = """
import json, sys
import nerrank.cli as cli
code = cli.main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else 0
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


def _probe(argv=None) -> tuple[int, set]:
    args = [sys.executable, "-c", IMPORT_PROBE] + ([json.dumps(argv)] if argv else [])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    return report["exit"], set(report["modules"])


def test_importing_the_cli_loads_no_numpy():
    _, modules = _probe()
    assert "nerrank.cli" in modules
    assert not modules & {"numpy", "nerrank.baseline.crf", "nerrank.pipeline"}


@pytest.mark.parametrize("command", ["eval", "oracle", "collapse"])
def test_numpy_free_commands_load_no_numpy(pipeline_dir, tmp_path, command):
    argv = {
        "eval": ["eval", "--gold-path", str(pipeline_dir["test"]),
                 "--pred-path", str(pipeline_dir["pred"])],
        "oracle": ["oracle", "--nbest-path", str(pipeline_dir["test_nbest"])],
        "collapse": ["collapse", "--nbest-path", str(pipeline_dir["test_nbest"])],
    }[command]
    code, modules = _probe(argv + ["--output-path", str(tmp_path / "out.txt")])
    assert code == EXIT_OK
    assert (tmp_path / "out.txt").stat().st_size > 0
    assert "numpy" not in modules


def test_baseline_decode_loads_no_reranker(pipeline_dir, tmp_path):
    code, modules = _probe(
        ["baseline-decode", "--model-path", str(pipeline_dir["model"]),
         "--input-path", str(pipeline_dir["test"]),
         "--output-path", str(tmp_path / "test.nbest")]
    )
    assert code == EXIT_OK
    assert {"numpy", "nerrank.baseline.crf"} <= modules
    assert not modules & {"nerrank.pipeline", "nerrank.reranker"}
