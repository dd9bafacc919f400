"""The README's library example runs as written, and its Configuration
section names every config key."""

import pathlib
import re

from nerrank.baseline.features import FeatureTemplateSet
from nerrank.config import FIELD_NAMES

from toycorpus import make_corpus

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    # the names the example assumes; 60/20/20 sentences keep it to seconds
    namespace = {
        "train_dataset": make_corpus(60, seed=0, split="train"),
        "dev_dataset": make_corpus(20, seed=0, split="dev"),
        "test_dataset": make_corpus(20, seed=0, split="test"),
        "templates": FeatureTemplateSet(),
    }
    for block in blocks:
        exec(block, namespace)
    assert len(namespace["predictions"]) == 20
    assert capsys.readouterr().out.startswith("n,oba,obf,owf\n")


def test_readme_configuration_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Configuration") : text.index("## File formats")]
    named = set(re.findall(r"`(\w+)`", section))
    # the paths and the `feat_*` template switches are named as groups
    keys = {k for k in FIELD_NAMES if not k.endswith("_path") and not k.startswith("feat_")}
    assert sorted(keys - named) == []
