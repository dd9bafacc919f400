"""Flat `key = value` run configuration shared by every command.

A run is described by one RunConfig: reranker hyperparameters, baseline
training options, feature-template switches, and file paths. Values come
from an optional config file plus command-line overrides, unknown keys are
rejected, and the fully resolved config has a stable 12-hex digest that is
stamped into every output file header.

The reranker's blocks (`TrainConfig`, holding a `ScorerConfig`), the alpha
grid, `decode`, which reads a saved model's meta by the same type rules,
and the names of a bundle's two files live here too, so every command can
resolve its config, and digest a bundle, without numpy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, is_dataclass
from functools import cache, reduce
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .baseline.features import FeatureTemplateSet
from .errors import ConfigError

# accepted spellings that differ from the field name
ALIASES = {"lambda": "l2"}

# the interpolation weights alpha search tries: {0, 0.005, ..., 1.0}
ALPHA_GRID = tuple(i / 200.0 for i in range(201))

# a reranker bundle is a directory of these two files
META_FILE = "meta.json"
WEIGHTS_FILE = "weights.bin"

_TRUE_WORDS = frozenset({"true", "yes", "on", "1"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0"})


# what a value of each leaf annotation takes, and its name in errors: a
# bool is no integer here, and a number is finite; the optional config keys
# (`alpha`, the paths) are not checked by type
_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) is int or isinstance(v, float) and math.isfinite(v), "a finite number"),
    bool: (lambda v: type(v) is bool, "a boolean"),
    str: (lambda v: type(v) is str, "a string"),
}


def check_alpha(alpha: float):
    """Raise ConfigError unless alpha is a point of ALPHA_GRID. The integers
    0 and 1 are grid points; a boolean is not. The range is tested first:
    NaN and infinities fail it, where rounding them would raise."""
    if type(alpha) is bool or not (
        0.0 <= alpha <= 1.0 and abs(alpha * 200.0 - round(alpha * 200.0)) < 1e-9
    ):
        raise ConfigError(f"alpha {alpha} is outside the 0.005 search grid")


# field metadata bounding a number: the test its value must pass, and the
# wording of the error when it does not
_NON_NEGATIVE = {"bound": (lambda v: v >= 0, "cannot be negative")}
_POSITIVE = {"bound": (lambda v: v > 0, "must be positive")}
_AT_LEAST_2 = {"bound": (lambda v: v >= 2, "must be at least 2")}
_BELOW_ONE = {"bound": (lambda v: 0 <= v < 1, "must be in [0, 1)")}
_UNIT = {"bound": (lambda v: 0 <= v <= 1, "must be in [0, 1]")}
_POSITIVE_ODD = {"bound": (lambda v: v > 0 and v % 2 == 1, "must be a positive odd number")}

# marks a scorer setting that shapes training only, not the parameter set
TRAINING_ONLY = {"arch": False}


def _check_fields(block):
    """Raise ConfigError unless each key of a config block has its annotated
    type and keeps its field's bound, whichever route the value came by."""
    for f in fields(block):
        if f.name not in _KEYS:  # a nested block, checked when it was built
            continue
        value = getattr(block, f.name)
        if _KEYS[f.name][1] in _TYPES:
            _check_each(_KEYS[f.name][1], (value,), f.name)
        if "bound" in f.metadata:
            holds, wording = f.metadata["bound"]
            if not holds(value):
                raise ConfigError(f"{f.name} {wording}, got {value}")


class _Absent:  # stands in for a missing key; every check rejects it
    def __repr__(self):
        return "no value"


def _unexpected(where: str, what: str, value) -> ConfigError:
    return ConfigError(f"{where or 'meta'}: expected {what}, got {value!r}")


def _check_each(kind, values, where: str):
    """Check scalars against one leaf of `_TYPES`, in one loop."""
    holds, what = _TYPES[kind]
    for value in values:
        if not holds(value):
            raise _unexpected(where, what, value)


def decode(kind, value, where: str = ""):
    """Build `kind` from a JSON value: a dataclass by its constructor, from
    an object holding exactly its fields; `tuple[X, ...]` from an array; a
    `_TYPES` leaf, `dict`, `dict[K, V]` of leaves and `X | None` as written.
    An error reads `<key>: expected <kind>, got <value>`, the key being the
    dotted path below `where` (entries share their array's key); an
    annotation of another form raises TypeError."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is UnionType and len(args) == 2 and type(None) in args:
        (inner,) = (arg for arg in args if arg is not type(None))
        return None if value is None else decode(inner, value, where)
    if kind in _TYPES:
        _check_each(kind, (value,), where)
        return value
    if origin is tuple and args[1:] == (Ellipsis,):
        if type(value) is not list:
            raise _unexpected(where, "a JSON array", value)
        if args[0] not in _TYPES:
            return tuple(decode(args[0], item, where) for item in value)
        _check_each(args[0], value, where)
        return tuple(value)
    if is_dataclass(kind) or kind is dict or (origin is dict and set(args) <= _TYPES.keys()):
        if type(value) is not dict:
            raise _unexpected(where, "a JSON object", value)
        if not is_dataclass(kind):
            for entries, leaf in zip((value.keys(), value.values()), args):
                _check_each(leaf, entries, where)
            return value
        types, prefix = _field_types(kind), f"{where}." if where else ""
        extra = next((name for name in value if name not in types), None)
        if extra is not None:
            raise _unexpected(prefix + extra, "no such key", value[extra])
        absent = _Absent()
        return kind(**{n: decode(t, value.get(n, absent), prefix + n) for n, t in types.items()})
    raise TypeError(f"{where or 'meta'}: decode cannot read the annotation {kind!r}")


@dataclass(frozen=True)
class ScorerConfig:
    """Sizes and switches of the pattern scorer, under their config-key names."""

    word_dim: int = field(default=50, metadata=_POSITIVE)
    char_dim: int = field(default=50, metadata=_POSITIVE)
    lstm_hidden: int = field(default=100, metadata=_POSITIVE)
    char_cnn_filters: int = field(default=50, metadata=_POSITIVE)
    word_cnn_filters: int = field(default=100, metadata=_POSITIVE)
    char_cnn_window: int = field(default=3, metadata=_POSITIVE_ODD)
    word_cnn_window: int = field(default=3, metadata=_POSITIVE_ODD)
    use_lstm: bool = True
    use_char_cnn: bool = True
    use_word_cnn: bool = True
    peepholes: bool = False
    dropout: float = field(default=0.2, metadata={**_UNIT, **TRAINING_ONLY})
    freeze_embeddings: bool = field(default=False, metadata=TRAINING_ONLY)

    def __post_init__(self):
        _check_fields(self)
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
    learning_rate: float = field(default=0.001, metadata=_POSITIVE)
    batch_size: int = field(default=128, metadata=_POSITIVE)
    l2: float = field(default=0.001, metadata=_NON_NEGATIVE)
    adam_beta1: float = field(default=0.1, metadata=_BELOW_ONE)
    adam_beta2: float = field(default=0.999, metadata=_BELOW_ONE)
    adam_eps: float = field(default=1e-8, metadata=_POSITIVE)
    epochs: int = field(default=5, metadata=_NON_NEGATIVE)
    seed: int = field(default=0, metadata=_NON_NEGATIVE)
    char_pad_cap: int = field(default=32, metadata=_POSITIVE)

    def __post_init__(self):
        _check_fields(self)


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
    crf_epochs: int = field(default=20, metadata=_NON_NEGATIVE)
    crf_batch_size: int = field(default=8, metadata=_POSITIVE)
    crf_lr: float = field(default=0.05, metadata=_POSITIVE)
    crf_l2: float = field(default=1e-4, metadata=_NON_NEGATIVE)
    folds: int = field(default=5, metadata=_AT_LEAST_2)

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
    n_best: int = field(default=10, metadata=_POSITIVE)
    alpha: float | None = None
    bucket_width: int = field(default=5, metadata=_POSITIVE)

    # reranker training (holds `seed`, also used by the baseline) and scorer
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        _check_fields(self)
        if self.alpha is not None:
            check_alpha(self.alpha)

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


@cache
def _field_types(block) -> dict:
    """{field name: type} of a dataclass, in field order; built once per
    class, as `get_type_hints` costs more than building the config itself."""
    hints = get_type_hints(block)
    return {f.name: hints[f.name] for f in fields(block)}


def _keys(block, path=()):
    """(key, (attribute path, type)) for every leaf field under a config
    block."""
    for name, kind in _field_types(block).items():
        if is_dataclass(kind):
            yield from _keys(kind, path + (name,))
        else:
            yield name, (path + (name,), kind)


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
        value = None
    if not _TYPES[kind][0](value):
        raise ConfigError(f"{name}: expected {_TYPES[kind][1]}, got {raw!r}")
    return value


def _build(block, typed: dict):
    """Instantiate a config block from flat typed values; keys not given
    keep their defaults."""
    kwargs = {}
    for name, kind in _field_types(block).items():
        if is_dataclass(kind):
            kwargs[name] = _build(kind, typed)
        elif name in typed:
            kwargs[name] = typed[name]
    return block(**kwargs)


def parse_config_text(text: str) -> dict[str, str]:
    """`key = value` per line; blank lines and `#` comments are ignored.
    Values are keyed by field name: a key and its alias may not both appear."""
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
        name = ALIASES.get(key, key)
        if name in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[name] = value.strip()
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
