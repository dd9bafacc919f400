"""Flat `key = value` run configuration shared by every command.

A run is described by one RunConfig: reranker hyperparameters, baseline
training options, feature-template switches, and file paths. Values come
from an optional config file plus command-line overrides, unknown keys are
rejected, and the fully resolved config has a stable 12-hex digest that is
stamped into every output file header.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import reduce
from typing import get_args, get_type_hints

from .baseline.features import FeatureTemplateSet
from .errors import ConfigError
from .pipeline import TrainConfig, _on_grid

# accepted spellings that differ from the field name
ALIASES = {"lambda": "l2"}

_TRUE_WORDS = frozenset({"true", "yes", "on", "1"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0"})
_EXPECTED = {int: "an integer", float: "a number"}


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
