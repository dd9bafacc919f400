"""nerrank benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy-rerank --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is taken from the
checkout's `src/`. The run generates the workload's inputs from the seed,
runs its untimed preparation, then repeats the workload's timed stage
sequence (each stage a fresh `nerrank` process, one after another, one
caller) until `--seconds` are used, at least twice. Every stage's exit
code and every output is checked; failures count in `failed` and never
stop the run. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` list, as
medians over the repeats. With `--trace 1` untraced and traced repeats
alternate, and the metrics are its `per_layer` list, as medians over the
traced repeats, plus the tracing overhead. Lines before the last one give
the environment and every stage metric by name and unit.

Work files go to `.perfbench_work/<workload>-seed<seed>/` in the checkout,
replaced by the next run of the same workload and seed.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
# cap BLAS threads at the cores available, before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, Plan, Stage, rerank_at  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "nerrank" / "cli.py"
STAGE_TIMEOUT_S = 60.0
SETUP_SAMPLES = 3  # set-up measurements after every repeat
# units of the stage metrics that BENCHMARK.json does not gate
TABLE_UNITS = {
    "crf_train_tok_per_s": "tokens*epochs/s",
    "jackknife_s": "s",
    "decode_sent_per_s": "sentences/s",
    "rerank_train_ex_per_s": "examples*epochs/s",
    "rerank_decode_cand_per_s": "candidates/s",
    "alpha_search_s": "s",
    "rerank_f1": "F1",
}


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"]
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": threads,
    }


@dataclass
class Ops:
    """Operations attempted and failed: stages and correctness checks."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def check(self, what: str, fn):
        """Run one check; any error it raises is a failed operation."""
        try:
            result = fn()
        except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.record(False, f"{what}: {exc}")
            return None
        self.record(True, what)
        return result


@dataclass
class Repeat:
    traced: bool
    reports: dict[str, dict]  # stage label -> stage report
    wall_s: float
    digest: str | None = None
    baseline_f1: float | None = None
    rerank_f1: float | None = None


class Bench:
    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.ops = Ops()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    # -- processes -------------------------------------------------------

    def _spawn(self, run_id: str, args: list[str]) -> dict:
        """Run stage.py with args; its report plus the parent's wall time.
        A nonzero exit, a timeout or a missing report is a failed stage."""
        report_path = self.work / "reports" / f"{run_id}.json"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "stage.py"), "--report", str(report_path)] + args
        code = None
        with open(self.work / "logs" / f"{run_id}.log", "w", encoding="utf-8") as log:
            t0 = perf_counter()
            try:
                code = subprocess.run(
                    cmd, cwd=self.work, env=self.env, stdout=log, stderr=log,
                    timeout=STAGE_TIMEOUT_S, check=False,
                ).returncode
            except subprocess.TimeoutExpired:
                pass
            wall = perf_counter() - t0
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
        ok = code == 0 and report.get("exit") == 0
        self.ops.record(ok, f"{run_id} exited with {code} (log: logs/{run_id}.log)")
        report.update(wall_s=wall, ok=ok)
        return report

    def stage(self, stage: Stage, run_id: str, traced: bool = False) -> dict:
        flags = ["--trace"] if traced else []
        return self._spawn(run_id, flags + ["--", *stage.argv])

    # -- the run ---------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        for sub in ("reports", "logs"):
            (self.work / sub).mkdir(parents=True, exist_ok=True)
        self.workload.generate(self.work, self.seed)
        self.plan = plan = self.workload.plan(self.seed)
        for st in plan.prepare:
            self.stage(st, st.label)

        repeats: list[Repeat] = []
        setup: list[float] = []
        start = perf_counter()
        while True:
            traced = self.trace and len(repeats) % 2 == 1
            repeats.append(self.pipeline(plan, len(repeats), traced))
            # set-up is sampled between repeats, so it sees the same machine
            # conditions the repeats do
            for sample in range(SETUP_SAMPLES):
                setup.append(self.setup(plan, f"{len(repeats)}-{sample}"))
            elapsed = perf_counter() - start
            if len(repeats) >= 2 and elapsed + repeats[-1].wall_s > self.seconds:
                break

        digests = [r.digest for r in repeats]
        self.ops.check(
            "outputs are byte-identical across repeats",
            lambda: _require(None not in digests and len(set(digests)) == 1,
                             f"digests {digests}"),
        )
        if plan.bundle is not None:
            self.check_scorer(plan)
        return self.metrics(repeats, setup), self.layer_metrics(repeats)

    def pipeline(self, plan: Plan, index: int, traced: bool) -> Repeat:
        reports = {}
        for st in plan.stages:
            reports[st.label] = self.stage(st, f"r{index}-{st.label}", traced)
        rep = Repeat(traced, reports, sum(r["wall_s"] for r in reports.values()))
        self.check_outputs(plan, rep, index)
        for label, report in reports.items():
            if "trace" in report:
                self._write_spans(f"r{index}-{label}", report)
        return rep

    def check_outputs(self, plan: Plan, rep: Repeat, index: int) -> None:
        w = self.work
        tag = f"r{index}"
        gold = self.ops.check(f"{tag}: read gold", lambda: checks.read_conll(w / plan.test_gold))
        blocks = {}
        for nbest, gold_file, k in plan.nbest_outputs:
            blocks[nbest] = self.ops.check(
                f"{tag}: {nbest} parses and aligns with {gold_file}",
                lambda n=nbest, g=gold_file, k=k: checks.check_nbest(
                    w / n, checks.read_conll(w / g), k),
            )
        if gold is None:
            return
        gold_tags = [tags for _, tags in gold]
        if blocks.get(plan.test_nbest) is not None:
            rep.baseline_f1 = checks.chunk_f1(gold_tags, checks.top_one(blocks[plan.test_nbest]))
        if plan.predictions is not None:
            pred = self.ops.check(
                f"{tag}: {plan.predictions} parses and aligns with gold",
                lambda: checks.check_predictions(w / plan.predictions, gold),
            )
            if pred is not None:
                rep.rerank_f1 = checks.chunk_f1(gold_tags, pred)
                self.ops.check(
                    f"{tag}: eval F1 agrees with the benchmark's own",
                    lambda: _require(
                        abs(_eval_f1(w / plan.eval_output) - rep.rerank_f1) <= 0.005 + 1e-9,
                        f"eval says {_eval_f1(w / plan.eval_output)}, "
                        f"benchmark says {rep.rerank_f1}"),
                )
        if plan.oracle_output is not None and rep.baseline_f1 is not None:
            self.ops.check(
                f"{tag}: oracle curves start at the 1-best F1, accuracy never falls",
                lambda: _check_oracle(w / plan.oracle_output, rep.baseline_f1),
            )
        rep.digest = self.ops.check(
            f"{tag}: digest outputs",
            lambda: checks.digest([w / f for f in plan.digest_files]),
        )

    def check_scorer(self, plan: Plan) -> None:
        """Once per run, on the test n-best: at alpha 0 the reranker must
        return the CRF 1-best; at alpha 1 it picks by the scorer alone, and
        must pick the same candidates when the sentences come in reverse
        order, so that scores may not depend on what else is batched, cached
        or deduplicated with a pattern."""
        w = self.work
        gold = self.ops.check("scorer checks: read gold",
                              lambda: checks.read_conll(w / plan.test_gold))
        reversed_nbest = "test_reversed.nbest"
        self.ops.check("scorer checks: reverse the test n-best",
                       lambda: checks.reverse_nbest(w / plan.test_nbest, w / reversed_nbest))
        for st in (rerank_at("rerank-decode-alpha0", plan.test_nbest, "pred_alpha0.conll",
                             plan.k, "0"),
                   rerank_at("rerank-decode-alpha1", plan.test_nbest, "pred_alpha1.conll",
                             plan.k, "1"),
                   rerank_at("rerank-decode-alpha1-reversed", reversed_nbest,
                             "pred_alpha1_reversed.conll", plan.k, "1")):
            self.stage(st, st.label)
        if gold is None:
            return

        def same_as_one_best():
            pred = checks.check_predictions(w / "pred_alpha0.conll", gold)
            one_best = checks.top_one(checks.read_nbest(w / plan.test_nbest))
            diff = sum(p != b for p, b in zip(pred, one_best))
            _require(diff == 0, f"{diff} sentences differ from the CRF 1-best")

        def order_free():
            pred = checks.check_predictions(w / "pred_alpha1.conll", gold)
            rev = checks.check_predictions(w / "pred_alpha1_reversed.conll", gold[::-1])
            diff = sum(p != r for p, r in zip(pred, rev[::-1]))
            _require(diff == 0, f"{diff} sentences pick another candidate in reverse order")

        self.ops.check("rerank-decode --alpha 0 reproduces the CRF 1-best", same_as_one_best)
        self.ops.check("rerank-decode --alpha 1 picks the same in reverse sentence order",
                       order_free)

    def setup(self, plan: Plan, run_id: str) -> float | None:
        models = [plan.crf] + ([plan.bundle] if plan.bundle else [])
        report = self._spawn(f"setup{run_id}", ["--setup", *models])
        return report["setup_s"] if report["ok"] else None

    def _write_spans(self, run_id: str, report: dict) -> None:
        out = self.work / "spans" / f"{run_id}.jsonl"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            for name, start, end, parent in report["trace"].pop("spans"):
                fh.write(json.dumps({"run": run_id, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    # -- metrics ---------------------------------------------------------

    def metrics(self, repeats: list[Repeat], setup: list[float]) -> dict:
        plain = [r for r in repeats if not r.traced]
        values: dict[str, float] = {
            "setup_s": _median(setup),
            "pipeline_s": _median([r.wall_s for r in plain]),
            "peak_rss_mb": _median([
                max(rep.get("peak_rss_mb", 0.0) for rep in r.reports.values())
                for r in plain
            ]),
            "baseline_f1": _median([r.baseline_f1 for r in plain]),
        }
        if any(r.rerank_f1 is not None for r in plain):
            values["rerank_f1"] = _median([r.rerank_f1 for r in plain])
        for name in {st.metric for st in self.plan.stages} - {None}:
            values[name] = _median([self.stage_metric(name, r) for r in plain])
        for label in plain[0].reports:
            values[f"stage.{label}_s"] = _median([r.reports[label]["wall_s"] for r in plain])
        return values

    def stage_metric(self, name: str, rep: Repeat) -> float | None:
        items = seconds = 0.0
        for st in self.plan.stages:
            report = rep.reports[st.label]
            if st.metric != name or not report["ok"]:
                continue
            seconds += report["main_s"]
            if st.items is not None:
                items += st.items(self.work)
        if seconds == 0.0:
            return None
        return items / seconds if name.endswith("_per_s") else seconds

    def layer_metrics(self, repeats: list[Repeat]) -> dict:
        traced = [r for r in repeats if r.traced]
        if not traced:
            return {}
        per_repeat = [layer_values(r.reports.values()) for r in traced]
        values = {name: _median([v[name] for v in per_repeat]) for name in per_repeat[0]}
        values["trace.overhead_s"] = (
            _median([r.wall_s for r in traced])
            - _median([r.wall_s for r in repeats if not r.traced])
        )
        return values


def layer_values(reports) -> dict:
    """Per-layer metrics of one traced pipeline: the stage summaries merged."""
    layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    for report in reports:
        trace = report.get("trace", {})
        for name, entry in trace.get("layers", {}).items():
            for key, value in entry.items():
                layers[name][key] += value
        for name, value in trace.get("counts", {}).items():
            if name == "crf.features":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value

    def self_s(name):
        return layers[name]["self_s"] if name in layers else 0.0

    def calls(name):
        return layers[name]["calls"] if name in layers else 0

    def ratio(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    return {
        "features.featurize_s": self_s("featurize"),
        "features.featurize_calls": calls("featurize"),
        "crf.train_self_s": self_s("crf_train"),
        "crf.adam_step_s": self_s("crf.adam_step"),
        "crf.adam_steps": counts["crf.adam_steps"],
        "crf.adam_values_per_step": ratio("crf.adam_values", "crf.adam_steps"),
        "crf.features": counts["crf.features"],
        "crf.kbest_s": self_s("kbest"),
        "crf.kbest_calls": calls("kbest"),
        "crf.emission_s": self_s("emission"),
        "crf.log_partition_s": self_s("log_partition"),
        "nbest.jackknife_s": layers["jackknife"]["busy_s"] if "jackknife" in layers else 0.0,
        "nbest.parse_s": self_s("parse_nbest"),
        "nbest.format_s": self_s("format_nbest"),
        "nbest.bytes": counts["nbest.bytes"],
        "collapse.s": self_s("collapse"),
        "collapse.calls": calls("collapse"),
        "scorer.score_batch_self_s": self_s("score_batch"),
        "scorer.word_matrix_s": self_s("word_matrix"),
        "scorer.lstm_s": self_s("lstm"),
        "scorer.word_cnn_s": self_s("word_cnn"),
        "scorer.sequences": counts["scorer.sequences"],
        "scorer.graph_nodes_per_example": ratio("scorer.graph_nodes", "scorer.loss_examples"),
        "tensor.backward_s": self_s("backward"),
        "tensor.backward_calls": calls("backward"),
        "optim.adam_step_s": self_s("optim.adam_step"),
        "optim.adam_values_per_step": ratio("optim.adam_values", "optim.adam_steps"),
        "pipeline.make_examples_s": self_s("make_examples"),
        "pipeline.batch_loss_s": self_s("batch_loss"),
        "pipeline.score_sets_s": self_s("score_sets"),
        "pipeline.distinct_pattern_ratio": ratio("pipeline.distinct_patterns",
                                                 "pipeline.candidates"),
        "pipeline.alpha_search_s": self_s("alpha_search"),
        "pipeline.alpha_points": counts["pipeline.alpha_points"],
        "pipeline.bundle_io_s": self_s("load_bundle") + self_s("save_bundle"),
        "corpus.parse_conll_s": self_s("parse_conll"),
        "evaluation.chunk_prf_s": self_s("chunk_prf"),
        "evaluation.oracle_s": self_s("oracle"),
        "cli.self_s": self_s("cli"),
    }


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise checks.CheckFailed(message)


def _eval_f1(path: Path) -> float:
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        if key == "F1":
            return float(value)
    raise checks.CheckFailed(f"{path.name} has no F1 line")


def _check_oracle(path: Path, one_best_f1: float) -> None:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()
            if line and line[0].isdigit()]
    _require(bool(rows), "no oracle rows")
    _, _, obf, owf = (float(x) for x in rows[0])
    _require(abs(100.0 * obf - one_best_f1) < 1e-9 and obf == owf,
             f"oracle F1 at n=1 is {100.0 * obf} / {100.0 * owf}, 1-best F1 is {one_best_f1}")
    oba = [float(row[1]) for row in rows]
    _require(oba == sorted(oba), "oracle sentence accuracy decreases with n")


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nerrank benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"run.py: no program to benchmark at {PROGRAM}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    workload = WORKLOADS[args.workload]
    return report(spec, workload, args.seed, args.seconds, bool(args.trace))


def report(spec: dict, workload, seed: int, seconds: float, trace: bool,
           work_root: Path = ROOT / ".perfbench_work") -> int:
    work = work_root / f"{workload.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("env " + json.dumps(environment(), sort_keys=True))
    bench = Bench(workload, seed, seconds, trace, work)
    stage_values, layer_vals = bench.run()
    ops = bench.ops

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(TABLE_UNITS)
    units.update({name: "s" for name in stage_values if name.startswith("stage.")})
    shown = layer_vals if trace else stage_values
    for name, value in sorted(shown.items()):
        print(f"{name:34s} {value:14.6f} {units.get(name, '')}")
    print(f"{'failed_ops':34s} {ops.failed / ops.attempted:14.6f} share "
          f"({ops.failed} of {ops.attempted})")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(shown.get(m["name"], 0.0)), "unit": m["unit"]}
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
