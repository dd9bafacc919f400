"""Flat `key = value` run configuration shared by every command.

A run is described by one RunConfig: reranker hyperparameters, baseline
training options, feature-template switches, and file paths. Values come
from an optional config file plus command-line overrides, unknown keys are
rejected, and the fully resolved config has a stable 12-hex digest that is
stamped into every output file header.

The reranker's blocks (`TrainConfig`, holding a `ScorerConfig`) and the
alpha grid live here too, so every command can resolve its config without
importing numpy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce
from typing import get_args, get_type_hints

from .baseline.features import FeatureTemplateSet
from .errors import ConfigError

# accepted spellings that differ from the field name
ALIASES = {"lambda": "l2"}

# the interpolation weights alpha search tries: {0, 0.005, ..., 1.0}
ALPHA_GRID = tuple(i / 200.0 for i in range(201))

_TRUE_WORDS = frozenset({"true", "yes", "on", "1"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0"})
_EXPECTED = {int: "an integer", float: "a number"}


def _on_grid(alpha: float) -> bool:
    return abs(alpha * 200.0 - round(alpha * 200.0)) < 1e-9 and 0.0 <= alpha <= 1.0


# marks a scorer setting that shapes training only, not the parameter set
TRAINING_ONLY = {"arch": False}


@dataclass(frozen=True)
class ScorerConfig:
    """Sizes and switches of the pattern scorer, under their config-key names."""

    word_dim: int = 50
    char_dim: int = 50
    lstm_hidden: int = 100
    char_cnn_filters: int = 50
    word_cnn_filters: int = 100
    char_cnn_window: int = 3
    word_cnn_window: int = 3
    use_lstm: bool = True
    use_char_cnn: bool = True
    use_word_cnn: bool = True
    peepholes: bool = False
    dropout: float = field(default=0.2, metadata=TRAINING_ONLY)
    freeze_embeddings: bool = field(default=False, metadata=TRAINING_ONLY)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:  # sizes and windows; bools are switches
                continue
            if f.name.endswith("_window") and (value < 1 or value % 2 == 0):
                raise ConfigError(f"{f.name} must be a positive odd number, got {value}")
            if value < 1:
                raise ConfigError(f"{f.name} must be positive, got {value}")
        if not 0.0 <= self.dropout <= 1.0:
            raise ConfigError(f"dropout must be in [0, 1], got {self.dropout}")
        if not (self.use_lstm or self.use_word_cnn):
            raise ConfigError("at least one of the LSTM and word CNN must be enabled")

    @classmethod
    def arch_keys(cls) -> tuple[str, ...]:
        """Settings that fix the parameter set; a loaded bundle must agree."""
        return tuple(f.name for f in fields(cls) if f.metadata.get("arch", True))

    @property
    def repr_dim(self) -> int:
        return self.word_dim + (self.char_cnn_filters if self.use_char_cnn else 0)

    @property
    def head_dim(self) -> int:
        return (self.lstm_hidden if self.use_lstm else 0) + (
            self.word_cnn_filters if self.use_word_cnn else 0
        )


@dataclass(frozen=True)
class TrainConfig:
    """Reranker training run: optimizer and run settings around the scorer."""

    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    learning_rate: float = 0.001
    batch_size: int = 128
    l2: float = 0.001
    adam_beta1: float = 0.1
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 5
    seed: int = 0
    char_pad_cap: int = 32

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs cannot be negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2 < 0:
            raise ConfigError(f"l2 cannot be negative, got {self.l2}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {beta}")
        if self.adam_eps <= 0:
            raise ConfigError(f"adam_eps must be positive, got {self.adam_eps}")
        if self.char_pad_cap < 1:
            raise ConfigError(f"char_pad_cap must be positive, got {self.char_pad_cap}")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of every command, with pinned defaults.

    The reranker's training block, and the scorer block inside it, are
    nested dataclasses; their fields share this one flat key namespace.
    """

    # file paths (unset = none)
    train_path: str | None = None
    input_path: str | None = None
    output_path: str | None = None
    model_path: str | None = None
    bundle_path: str | None = None
    nbest_path: str | None = None
    train_nbest_path: str | None = None
    dev_nbest_path: str | None = None
    gold_path: str | None = None
    pred_path: str | None = None
    embeddings_path: str | None = None
    clusters_path: str | None = None
    manifest_path: str | None = None

    # baseline tagger
    crf_epochs: int = 20
    crf_batch_size: int = 8
    crf_lr: float = 0.05
    crf_l2: float = 1e-4
    folds: int = 5

    # baseline feature templates
    feat_word_grams: bool = True
    feat_word_bigrams: bool = True
    feat_shape: bool = True
    feat_capital: bool = True
    feat_capital_word: bool = True
    feat_connect: bool = True
    feat_capital_connect: bool = True
    feat_cluster_grams: bool = True
    feat_prefix_suffix: bool = True
    feat_pos_grams: bool = True
    feat_pos_word: bool = True

    # candidates per sentence, decoding / evaluation
    n_best: int = 10
    alpha: float | None = None
    bucket_width: int = 5

    # reranker training (holds `seed`, also used by the baseline) and scorer
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if self.crf_epochs < 0:
            raise ConfigError(f"crf_epochs cannot be negative, got {self.crf_epochs}")
        if not self.crf_lr > 0:
            raise ConfigError(f"crf_lr must be positive, got {self.crf_lr}")
        if self.crf_l2 < 0:
            raise ConfigError(f"crf_l2 cannot be negative, got {self.crf_l2}")
        if self.crf_batch_size < 1:
            raise ConfigError(
                f"crf_batch_size must be positive, got {self.crf_batch_size}"
            )
        if self.n_best < 1:
            raise ConfigError(f"n_best must be positive, got {self.n_best}")
        if self.bucket_width < 1:
            raise ConfigError(f"bucket_width must be positive, got {self.bucket_width}")
        if self.alpha is not None and not _on_grid(self.alpha):
            raise ConfigError(f"alpha {self.alpha} is outside the 0.005 search grid")

    def crf_options(self) -> dict:
        """Keyword arguments of `crf_train` for the baseline settings."""
        return {
            "epochs": self.crf_epochs,
            "batch_size": self.crf_batch_size,
            "lr": self.crf_lr,
            "l2": self.crf_l2,
            "seed": self.train.seed,
        }

    def template_set(self, clusters: dict | None = None) -> FeatureTemplateSet:
        """The baseline's templates: key `feat_<group>` switches `<group>`."""
        switches = {
            f.name.removeprefix("feat_"): getattr(self, f.name)
            for f in fields(self)
            if f.name.startswith("feat_")
        }
        return FeatureTemplateSet(clusters=clusters, **switches)


def _keys(block, path=()):
    """(key, (attribute path, type)) for every leaf field under a config
    dataclass; a field typed as a dataclass is a nested block."""
    hints = get_type_hints(block)
    for f in fields(block):
        kind = hints[f.name]
        if is_dataclass(kind):
            yield from _keys(kind, path + (f.name,))
        else:
            yield f.name, (path + (f.name,), kind)


_KEYS = dict(_keys(RunConfig))
FIELD_NAMES = tuple(_KEYS)


def _coerce(name: str, raw: str):
    """Parse one raw string value for the named key, by its annotation."""
    text = raw.strip()
    kind = _KEYS[name][1]
    if type(None) in get_args(kind):
        if text.lower() == "none":
            return None
        (kind,) = (arg for arg in get_args(kind) if arg is not type(None))
    if kind is bool:
        low = text.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if kind is str:  # optional paths: empty = unset
        return text or None
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{name}: expected {_EXPECTED[kind]}, got {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {raw!r}")
    return value


def _build(block, typed: dict):
    """Instantiate a config block from flat typed values; keys not given
    keep their defaults."""
    hints = get_type_hints(block)
    kwargs = {}
    for f in fields(block):
        if is_dataclass(hints[f.name]):
            kwargs[f.name] = _build(hints[f.name], typed)
        elif f.name in typed:
            kwargs[f.name] = typed[f.name]
    return block(**kwargs)


def parse_config_text(text: str) -> dict[str, str]:
    """`key = value` per line; blank lines and `#` comments are ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected `key = value`, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> tuple[RunConfig, frozenset[str]]:
    """Merge file values and overrides (overrides win) into a RunConfig.

    Returns the config plus the set of field names that were explicitly
    given, which commands use to tell deliberate choices from defaults.
    """
    merged: dict[str, str] = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            merged[ALIASES.get(key, key)] = value
    unknown = sorted(set(merged) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    typed = {name: _coerce(name, raw) for name, raw in merged.items()}
    return _build(RunConfig, typed), frozenset(typed)


def format_config(config: RunConfig) -> str:
    """Canonical flat rendering: one `key = value` line per field, sorted."""
    lines = []
    for name in sorted(_KEYS):
        value = reduce(getattr, _KEYS[name][0], config)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{name} = {text}\n")
    return "".join(lines)


def config_hash(config: RunConfig) -> str:
    """12-hex digest of the canonical rendering; stamped into output files."""
    return hashlib.sha256(format_config(config).encode("utf-8")).hexdigest()[:12]
