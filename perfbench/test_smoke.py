"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced. The test asserts that
the result line carries every metric BENCHMARK.json names, with its unit,
that the human-readable lines name every metric too, and that a stage
forced to fail is counted in `failed` instead of crashing the run, as is
a failing scorer check.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass

import pytest

import run
from workloads import CrfWide, LongDecode, Stage, ToyRerank

TINY = {
    "toy-rerank": ToyRerank(train=12, dev=6, test=6),
    "crf-wide": CrfWide(train=24, dev=6, test=6, vocab=300, names=40),
    "long-decode": LongDecode(train=10, vocab_sents=4, dev=2, test=2),
}


def _run(capsys, workload, trace, tmp_path):
    spec = run.benchmark_spec()
    assert run.report(spec, workload, 3, 0.0, trace, work_root=tmp_path) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return spec, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, name, trace):
    spec, lines, result = _run(capsys, TINY[name], trace, tmp_path)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    table = {line.split()[0]: line.split()[2:] for line in lines[1:-1]}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        assert table[m["name"]][0] == m["unit"], m["name"]
    assert "failed_ops" in table
    assert json.loads(lines[0].removeprefix("env "))["nproc"] >= 1
    if trace:
        assert result["metrics"]["cli.self_s"]["value"] > 0.0
        # repeat r1 is the traced one; its layers' self times fit in each stage
        for path in (tmp_path / f"{name}-seed3" / "reports").glob("r1-*.json"):
            stage = json.loads(path.read_text(encoding="utf-8"))
            self_s = sum(v["self_s"] for v in stage["trace"]["layers"].values())
            assert self_s <= stage["main_s"], path.name
    else:
        assert result["metrics"]["setup_s"]["value"] > 0.0
        assert result["metrics"]["pipeline_s"]["value"] > 0.0


def test_tracing_sees_the_layers_each_workload_stresses(capsys, tmp_path):
    _, _, toy = _run(capsys, TINY["toy-rerank"], True, tmp_path)
    toy = {k: v["value"] for k, v in toy["metrics"].items()}
    assert toy["optim.adam_step_s"] > 0.0 and toy["tensor.backward_calls"] > 0
    assert toy["scorer.graph_nodes_per_example"] > 0.0
    assert 0.0 < toy["pipeline.distinct_pattern_ratio"] < 1.0
    _, _, long = _run(capsys, TINY["long-decode"], True, tmp_path)
    long = {k: v["value"] for k, v in long["metrics"].items()}
    for name in ("tensor.backward_s", "tensor.backward_calls", "optim.adam_step_s",
                 "optim.adam_values_per_step"):
        assert long[name] == 0.0, name
    assert long["crf.kbest_calls"] > 0 and long["pipeline.alpha_points"] == 201


@dataclass(frozen=True)
class BrokenToy(ToyRerank):
    """The tiny toy workload with one stage that must fail."""

    def plan(self, seed):
        plan = super().plan(seed)
        plan.stages.insert(0, Stage(
            "broken", ("eval", "--gold-path", "absent.conll", "--pred-path", "absent.conll")
        ))
        return plan


def test_a_failing_stage_is_counted_not_fatal(capsys, tmp_path):
    broken = BrokenToy(train=12, dev=6, test=6)
    _, lines, result = _run(capsys, broken, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 2  # the broken stage, once per repeat
    assert result["attempted"] > result["failed"]
    assert any(line.startswith("failed_ops") for line in lines)


def test_a_failing_scorer_check_is_counted(capsys, tmp_path, monkeypatch):
    # an unreversed copy stands in for an order-dependent scorer: the
    # "reversed" predictions no longer line up with the forward ones
    monkeypatch.setattr(run.checks, "reverse_nbest", shutil.copyfile)
    _, lines, result = _run(capsys, TINY["toy-rerank"], False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name, workload in TINY.items():
        digests = []
        for sub in ("a", "b"):
            work = tmp_path / name / sub
            work.mkdir(parents=True)
            workload.generate(work, 5)
            digests.append(run.checks.digest(sorted(work.iterdir())))
        other = tmp_path / name / "c"
        other.mkdir()
        workload.generate(other, 6)
        assert digests[0] == digests[1] != run.checks.digest(sorted(other.iterdir()))
