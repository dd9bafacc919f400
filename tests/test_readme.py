"""The README's library example runs as written."""

import pathlib
import re

from nerrank.baseline.features import FeatureTemplateSet

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
