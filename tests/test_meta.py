"""Tests for reading saved models' meta: `config.decode` builds CrfMeta and
BundleMeta from JSON, and `load_crf`/`load_bundle` turn each malformed key
into a CheckpointMismatchError that names it.

The malformed cases are generated from the declarations: for every key
that either meta declares, nested dataclasses included, the key goes
missing, an unknown key sits beside it, its value has the wrong JSON type,
a number is NaN or infinite, and an array or map holds an entry of the
wrong type.
"""

import json
import math
from dataclasses import asdict, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from nerrank.baseline.crf import CrfMeta, crf_train, load_crf, save_crf
from nerrank.baseline.features import FeatureTemplateSet
from nerrank.config import RunConfig, decode
from nerrank.errors import CheckpointMismatchError
from nerrank.pipeline import BundleMeta, EpochEval, load_bundle, save_bundle

from test_pipeline import random_bundle
from toycorpus import make_corpus

DELETE = object()


def _wrong(kind):
    """A JSON value of a type that `kind` does not take."""
    return 5 if kind is str else "x"


def meta_cases(kind, path=(), key=""):
    """(case id, the key its error names, path into the meta JSON, the value
    written there or DELETE) for every key `kind` declares."""
    for name, field_kind in get_type_hints(kind).items():
        at, named = path + (name,), f"{key}.{name}" if key else name
        yield f"{named}-missing", named, at, DELETE
        yield f"{named}-unknown-key", f"{named}_x", path + (f"{name}_x",), 0
        yield f"{named}-wrong-type", named, at, _wrong(field_kind)
        yield from value_cases(field_kind, named, at)


def value_cases(kind, named, at):
    """The cases inside one declared value; an annotation form this test
    does not know fails it, as `decode` would."""
    origin, args = get_origin(kind), get_args(kind)
    if kind in (int, float):
        for bad in (math.nan, math.inf):
            yield f"{named}-{bad}", named, at, bad
    elif kind in (bool, str, dict):
        pass
    elif is_dataclass(kind):
        yield from meta_cases(kind, at, named)
    elif origin is tuple and args[1:] == (Ellipsis,):
        if is_dataclass(args[0]):
            yield from meta_cases(args[0], at + (0,), named)
        else:
            yield f"{named}-entry-wrong-type", named, at, [_wrong(args[0])]
            if args[0] in (int, float):
                yield f"{named}-entry-nan", named, at, [math.nan]
    elif origin is dict:
        yield f"{named}-entry-wrong-type", named, at, {"w": _wrong(args[1])}
    elif origin is UnionType and len(args) == 2 and type(None) in args:
        yield from value_cases(next(a for a in args if a is not type(None)), named, at)
    else:
        raise TypeError(f"{named}: no cases for the annotation {kind!r}")


CRF_CASES = {case[0]: case[1:] for case in meta_cases(CrfMeta)}
BUNDLE_CASES = {case[0]: case[1:] for case in meta_cases(BundleMeta)}


def _apply(meta, at, value):
    *inner, last = at
    for step in inner:
        meta = meta[step]
    if value is DELETE:
        del meta[last]
    else:
        meta[last] = value


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A valid crf.npz and bundle: their arrays and meta JSON."""
    root = tmp_path_factory.mktemp("saved")
    templates = RunConfig().template_set({"John": "0110"})
    options = dict(RunConfig().crf_options(), epochs=1)
    model = crf_train(make_corpus(6, seed=0), templates, **options)
    save_crf(root / "crf.npz", model, extra_meta={"version": "x"})
    bundle = random_bundle(seed=3)
    bundle.history = [EpochEval(epoch=0, alpha=0.25, dev_f1=50.0)]
    save_bundle(root / "bundle", bundle, provenance={"version": "x"})
    with np.load(root / "crf.npz") as archive:
        arrays = {name: archive[name] for name in archive.files}
    return {
        "crf": (arrays, json.loads(arrays.pop("meta").tobytes().decode())),
        "weights": (root / "bundle" / "weights.bin").read_bytes(),
        "bundle": json.loads((root / "bundle" / "meta.json").read_text(encoding="utf-8")),
    }


def _write_crf(path, arrays, meta):
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))


def test_the_cases_cover_every_declared_key():
    assert {"templates.shape-missing", "templates.clusters-entry-wrong-type",
            "nll_history-entry-nan"} < set(CRF_CASES)
    assert {"config.scorer.dropout-inf", "vocab.words-entry-wrong-type",
            "history.epoch-wrong-type", "provenance-wrong-type"} < set(BUNDLE_CASES)


def test_the_unmutated_checkpoints_load(saved, tmp_path):
    arrays, meta = saved["crf"]
    _write_crf(tmp_path / "crf.npz", arrays, meta)
    assert load_crf(tmp_path / "crf.npz").templates.clusters == {"John": "0110"}
    (tmp_path / "bundle").mkdir()
    (tmp_path / "bundle" / "weights.bin").write_bytes(saved["weights"])
    (tmp_path / "bundle" / "meta.json").write_text(json.dumps(saved["bundle"]), encoding="utf-8")
    assert load_bundle(tmp_path / "bundle").history == [EpochEval(0, 0.25, 50.0)]


@pytest.mark.parametrize("case", sorted(CRF_CASES))
def test_malformed_crf_meta_names_the_key(saved, tmp_path, case):
    key, at, value = CRF_CASES[case]
    arrays, meta = saved["crf"]
    meta = json.loads(json.dumps(meta))
    _apply(meta, at, value)
    path = tmp_path / "crf.npz"
    _write_crf(path, arrays, meta)
    if case.endswith("-unknown-key") and len(at) == 1:
        # the top level also holds the writer's provenance keys, unread
        load_crf(path)
        return
    with pytest.raises(CheckpointMismatchError) as info:
        load_crf(path)
    assert str(path) in str(info.value)
    assert f"{key}: expected " in str(info.value)


@pytest.mark.parametrize("case", sorted(BUNDLE_CASES))
def test_malformed_bundle_meta_names_the_key(saved, tmp_path, case):
    key, at, value = BUNDLE_CASES[case]
    meta = json.loads(json.dumps(saved["bundle"]))
    _apply(meta, at, value)
    path = tmp_path / "bundle"
    path.mkdir()
    (path / "weights.bin").write_bytes(saved["weights"])
    (path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with pytest.raises(CheckpointMismatchError) as info:
        load_bundle(path)
    assert str(path) in str(info.value)
    assert f"{key}: expected " in str(info.value)


def test_both_metas_round_trip_through_json():
    options = dict(RunConfig().crf_options(), epochs=1)
    model = crf_train(make_corpus(4, seed=1), FeatureTemplateSet(), **options)
    bundle = random_bundle(seed=4)
    metas = (
        CrfMeta(
            tags=model.tags,
            features=tuple(model.feature_vocab),
            templates=FeatureTemplateSet(shape=False, offsets=(-2, 0, 1), clusters={"John": "0110"}),
            nll_history=tuple(model.nll_history),
        ),
        BundleMeta(
            provenance={"version": "x", "config_hash": "0" * 12},
            alpha=0.25,
            char_pad=bundle.scorer.char_pad,
            config=bundle.config,
            vocab=bundle.scorer.vocab,
            history=(EpochEval(0, 0.0, 10.0), EpochEval(1, 0.5, 60.25)),
        ),
    )
    for meta in metas:
        assert decode(type(meta), json.loads(json.dumps(asdict(meta)))) == meta


def test_decode_rejects_an_annotation_form_it_does_not_read():
    for kind in (list[str], tuple[int, str], int | str, set):
        with pytest.raises(TypeError, match="cannot read"):
            decode(kind, [])
