"""Run one nerrank CLI stage in this process and report on it.

    python3 stage.py --report R.json [--trace] -- <nerrank arguments>
    python3 stage.py --report R.json --setup CRF [BUNDLE]

The first form imports `nerrank.cli`, optionally wraps the program's layer
functions with the tracer, calls `cli.main(arguments)` and writes a JSON
report: exit code, import and main wall times, peak RSS, and (traced) the
per-layer aggregates. It exits with the stage's exit code. The second form
measures set-up: import `nerrank.cli`, load the CRF checkpoint and, when
given, the reranker bundle, and report the elapsed time.

The program is found on PYTHONPATH; the benchmark points it at the
checkout's `src/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stage(argv: list[str], trace: bool) -> dict:
    t0 = time.perf_counter()
    import nerrank.cli as cli

    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer  # next to this script, so on sys.path

        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        code = tracer.run_root(cli.main, argv) if tracer else cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed stage, not a benchmark crash
        traceback.print_exc()
        code = 1
    main_s = time.perf_counter() - t1
    report = {
        "exit": code,
        "import_s": import_s,
        "main_s": main_s,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report


def run_setup(crf: str, bundle: str | None) -> dict:
    t0 = time.perf_counter()
    import nerrank.cli  # noqa: F401  (the import is what is timed)
    from nerrank.baseline.crf import load_crf
    from nerrank.pipeline import load_bundle

    load_crf(crf)
    if bundle is not None:
        load_bundle(bundle)
    return {"exit": 0, "setup_s": time.perf_counter() - t0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup", nargs="+", metavar="PATH")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    if args.setup:
        report = run_setup(args.setup[0], args.setup[1] if len(args.setup) > 1 else None)
    else:
        report = run_stage(args.argv, args.trace)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
