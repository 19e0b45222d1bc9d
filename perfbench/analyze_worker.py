"""One analyze workload run in a fresh interpreter: the timed part.

Usage: ``python analyze_worker.py PLAN.json`` (the orchestrator
``run.py`` writes the plan).  Each job receives program source text
and runs what ``repro analyze`` runs on it: parse → factgen → solve
(the worklist solver, or emit → kernel backend) → context-insensitive
points-to and call-graph projection.  Only that is timed.  Warmup
jobs, a ``gc.collect()`` before every job, and recording each job's
output for the orchestrator's checks all happen outside the timed
region.  The plan fixes how many whole rounds of the job list run, so
every run times the same jobs however fast the host is.

A job's "read" is its last step, the projection.  Besides the one
inside the job, the projection of the finished result is timed
``READ_REPEATS`` more times after the job, so that read percentiles
rest on enough samples even where jobs are few.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import rows_digest  # noqa: E402
import tracing  # noqa: E402

#: The relations the kernel backend must reproduce bit for bit.
DERIVED = ("pts", "hpts", "call", "reach", "spts", "texc")
#: Extra timed projections per job (see the module docstring).
READ_REPEATS = 4


def make_runner(backend: str):
    """``run(source, config) -> (result, pts_ci, call_graph, project_s)``,
    calling every layer through its module or class attribute so the
    traced run's wrappers see the calls.  ``project_s`` times the last
    step alone: reading the answers out of the finished solve."""
    from repro.core import analysis
    from repro.frontend import factgen, parser

    if backend == "worklist":
        def run(source, config):
            facts = factgen.generate_facts(parser.parse_program(source))
            result = analysis.PointerAnalysis(facts, config).run()
            return project(result)
        return run

    from repro.compile import emit

    def run(source, config):
        facts = factgen.generate_facts(parser.parse_program(source))
        if config.abstraction == "transformer-string":
            compiler = emit.compile_transformer_analysis
        else:
            compiler = emit.compile_context_string_analysis
        compiled = compiler(facts, config.flavour, config.m, config.h)
        result = compiled.run(backend="kernel")
        result.compiled = compiled
        result.facts = facts
        return project(result)
    return run


def project(result):
    start = time.perf_counter()
    pts, calls = result.pts_ci(), result.call_graph()
    return result, pts, calls, time.perf_counter() - start


def job_counts(backend: str, result) -> dict:
    """Per-job layer counts, read after the job's timed region."""
    if backend == "worklist":
        stats = result.stats
        store = result.store_stats()
        return {
            "derived": stats.facts_derived,
            "deduplicated": stats.facts_deduplicated,
            "firings": stats.rule_firings,
            "probes": sum(r.get("probes", 0) for r in store.values()),
            "inserts": sum(r.get("inserts", 0) for r in store.values()),
        }
    engine = result.engine
    store = engine.store_stats()
    rules = [r for r in result.compiled.program.rules if not r.is_fact()]
    live = sum(1 for r in rules if store.get(r.head.pred, {}).get("rows"))
    return {
        "rules": len(rules),
        "live_rules": live,
        "kernel_functions": len(engine.kernels.variants),
        "rounds": engine.stats.rounds,
        "rule_evaluations": engine.stats.rule_evaluations,
        "probes": sum(r.get("probes", 0) for r in store.values()),
        "inserts": sum(r.get("inserts", 0) for r in store.values()),
    }


def worklist_solve_seconds(result, config) -> float:
    """The denominator of ``datalog.kernel_vs_worklist``: the reference
    solver on the same facts (traced run only, untimed job-wise)."""
    from repro.core.analysis import PointerAnalysis

    gc.collect()
    start = time.perf_counter()
    PointerAnalysis(result.facts, config).run()
    return time.perf_counter() - start


def output_record(backend: str, result, pts, calls, full: bool) -> dict:
    """What the orchestrator checks for one attempt."""
    if backend == "worklist":
        record = {"digest": rows_digest(pts) + rows_digest(calls)}
        if full:
            record["pts"] = sorted(pts)
            record["calls"] = sorted(calls)
        return record
    return {
        "relations": {
            name: rows_digest(getattr(result, name)) for name in DERIVED
        }
    }


def corrupt(backend: str, result, pts) -> frozenset:
    """Drop one points-to row: the checks' self-test answer."""
    victim = min(pts)
    if backend == "kernel":
        result.relations["pts"] = {
            row for row in result.pts if (row[0], row[1]) != victim
        }
    return frozenset(pts) - {victim}


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    from repro.core.config import config_by_name

    backend = plan["backend"]
    sources = {}
    for job in plan["jobs"] + plan["warmup"]:
        if job["source"] not in sources:
            with open(job["source"], encoding="utf-8") as handle:
                sources[job["source"]] = handle.read()
    configs = {
        (job["config"], job["abstraction"]): config_by_name(
            job["config"], job["abstraction"]
        )
        for job in plan["jobs"] + plan["warmup"]
    }
    recorder = tracing.Recorder() if plan["trace"] else None
    if recorder is not None:
        tracing.instrument_analyze(recorder, backend)
    run = make_runner(backend)

    for job in plan["warmup"]:
        run(sources[job["source"]], configs[job["config"], job["abstraction"]])
    gc.collect()

    timings = []
    reads = []
    counts = {}
    denominators = {}
    timed = 0.0
    corrupt_job = plan.get("corrupt_job")
    with open(plan["out"], "wb") as out:
        for round_index in range(plan["rounds"]):
            for job in plan["jobs"]:
                source = sources[job["source"]]
                config = configs[job["config"], job["abstraction"]]
                gc.collect()
                if recorder is not None:
                    recorder.job = (job["id"], round_index)
                    span = recorder.open("job")
                start = time.perf_counter()
                result, pts, calls, project_s = run(source, config)
                seconds = time.perf_counter() - start
                if recorder is not None:
                    recorder.close(span)
                    recorder.job = None
                timed += seconds
                timings.append((job["id"], round_index, seconds))
                reads.append(project_s)
                for _ in range(READ_REPEATS):
                    reads.append(project(result)[3])
                first = round_index == 0
                if corrupt_job == job["id"] and first:
                    pts = corrupt(backend, result, pts)
                record = output_record(backend, result, pts, calls, first)
                record.update(job=job["id"], round=round_index)
                pickle.dump(record, out)
                if recorder is not None and first:
                    counts[job["id"]] = job_counts(backend, result)
                    if backend == "kernel":
                        denominators[job["id"]] = worklist_solve_seconds(
                            result, config
                        )
                del result, pts, calls
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {
        "timings": timings,
        "reads": reads,
        "timed_seconds": timed,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if recorder is not None:
        recorder.restore()
        summary["self_times"] = [
            [job_id, round_index, layers]
            for (job_id, round_index), layers in sorted(
                (key, dict(value))
                for key, value in recorder.self_times().items()
                if key is not None
            )
        ]
        summary["counts"] = counts
        summary["denominators"] = denominators
    with open(plan["summary"], "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
