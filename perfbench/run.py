"""Benchmark of the pointer analysis as users run it.

Run from the root of a checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload analyze-worklist --seed 1 \\
        --seconds 15 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer
metric, from a separately traced run) with its unit, the operations
attempted and failed, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the three workloads in turn, each ending with
its own JSON line.

Other modes:

* ``--smoke`` — all three workloads at tiny scale, in seconds; exits 1
  unless every one is correct with no failed operation.
* ``--self-test`` — the same, with one answer per workload corrupted;
  exits 1 unless every workload reports it as a failed operation.
* ``--digests`` — regenerate the seeded programs' fact digests for
  ``--seed`` and compare them with ``perfbench/digests.json``;
  ``--write-digests`` records them instead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, metric, print_result, require_source_tree  # noqa: E402

WORKLOADS = ("analyze-worklist", "analyze-kernel", "serve-edit")


def declared_metrics(trace: bool):
    """name -> unit of the metrics ``BENCHMARK.json`` declares for this
    mode: end-to-end without tracing, per-layer with it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    return {m["name"]: m["unit"] for m in doc[
        "per_layer" if trace else "end_to_end"
    ]}


def complete(metrics, trace: bool):
    """Every declared metric, in its declared unit.  A layer the
    workload does not run (no kernel code in analyze-worklist, no
    service in the analyze workloads) reads 0; an undeclared or
    mislabelled metric is a bug in the benchmark."""
    declared = declared_metrics(trace)
    for name, entry in metrics.items():
        if declared.get(name) != entry["unit"]:
            raise SystemExit(
                f"perfbench: metric {name} ({entry['unit']}) does not match"
                " BENCHMARK.json"
            )
    missing = set(declared) - set(metrics)
    if missing and not trace:
        raise SystemExit(f"perfbench: no value for {sorted(missing)}")
    return {
        name: metrics.get(name, metric(0.0, unit))
        for name, unit in declared.items()
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, corrupt: bool = False):
    """(metrics, attempted, failure messages, notes) of one run."""
    if name == "serve-edit":
        from serve import run_serve

        return run_serve(seed, seconds, trace, tiny=tiny, corrupt=corrupt)
    from analyze import run_analyze

    backend = name.split("-", 1)[1]
    return run_analyze(
        backend, seed, seconds, trace, tiny=tiny, corrupt=corrupt
    )


def report(name: str, outcome, trace: bool = False) -> bool:
    """Print one run; True when it was correct with nothing failed."""
    metrics, attempted, failures, notes = outcome
    metrics = complete(metrics, trace)
    print(f"workload {name}:")
    for note in notes:
        print(note)
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    print_result(not failures, attempted, len(failures), metrics)
    return not failures


def tiny_suite(corrupt: bool) -> int:
    """``--smoke`` / ``--self-test``: every workload at tiny scale."""
    verdicts = []
    for name in WORKLOADS:
        start = time.perf_counter()
        outcome = run_workload(name, 1, 1.0, False, tiny=True,
                               corrupt=corrupt)
        clean = report(name, outcome)
        failed = len(outcome[2])
        verdicts.append(failed > 0 if corrupt else clean)
        print(f"  ({time.perf_counter() - start:.1f}s)")
    if corrupt:
        print("self-test:", "every corrupted answer was reported"
              if all(verdicts) else "a corrupted answer went unreported")
    return 0 if all(verdicts) else 1


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so every child process this run
    # started is stopped by the ``finally`` that owns it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",),
        help="one workload, or all three in turn",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--digests", action="store_true")
    mode.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    require_source_tree()
    if args.smoke or args.self_test:
        return tiny_suite(corrupt=args.self_test)
    if args.digests or args.write_digests:
        from digests import compare_digests

        return compare_digests(args.seed, write=args.write_digests)
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, outcome, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
