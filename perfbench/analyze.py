"""The two analyze workloads: ``analyze-worklist`` and ``analyze-kernel``.

The orchestrator (this module, in ``run.py``'s interpreter) renders the
seeded programs to source text, measures set-up, starts one fresh
interpreter (``analyze_worker.py``) for the timed jobs, and checks every
job's output afterwards against computations made apart from the timed
path:

* ``analyze-worklist``: Theorem 6.2 — for call-site and object
  configurations a transformer-string job's context-insensitive
  points-to and call graph equal those of its context-string twin; for
  type configurations they are a superset.  Every binding and call edge
  a concrete execution (``repro.bench.concrete.run_concrete``) observes
  must be present.
* ``analyze-kernel``: the six derived relations are bit-identical to a
  worklist solve of the same facts.

Later rounds repeat the first round's jobs; each repeat must give the
same output digest as its first attempt.
"""

from __future__ import annotations

import json
import os
import pickle
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (
    HERE, WorkDir, median, metric, percentile, rows_digest, run_child,
    time_imports,
)

ABSTRACTIONS = ("transformer-string", "context-string")
TS, CS = ABSTRACTIONS

#: Figure 6's five configurations plus 2-call+H.
WORKLIST_CONFIGS = (
    "1-call", "1-call+H", "1-object", "2-object+H", "2-type+H", "2-call+H",
)
#: (shape, scale) of the worklist jobs: every corpus shape, each at a
#: scale where its jobs take tens to hundreds of milliseconds.
WORKLIST_PROGRAMS = (
    ("antlr", 6), ("bloat", 6), ("chart", 6), ("eclipse", 6),
    ("pmd", 6), ("xalan", 6), ("luindex", 12), ("towers", 12),
    ("fanout", 12),
)
#: Kernel jobs: (config, shape, scale).  2-object+H (1009 emitted
#: transformer-string rules) recurs on three programs, 1-call (165
#: rules) on two; context-string emissions have 17 rules either way.
#: These programs do not vary with the run seed, which only orders the
#: jobs: the workload measures kernel builds per configuration, and
#: with seeded programs its ten jobs' projection medians moved by a
#: fifth from seed to seed.
KERNEL_CELLS = (
    ("2-object+H", "bloat", 16), ("2-object+H", "luindex", 32),
    ("2-object+H", "towers", 32),
    ("1-call", "fanout", 16), ("1-call", "xalan", 8),
)
#: Seconds one round of each deck takes on the reference host: a run
#: of ``--seconds S`` times ``round(S / ROUND_SECONDS)`` whole rounds
#: (at least one), a count fixed before the run starts.
ROUND_SECONDS = {"worklist": 10.0, "kernel": 10.0}
#: Warmup, untimed: one job per abstraction on this program (built
#: from seed 0 whatever the run seed), with a
#: configuration no timed job of the backend uses, so warmup fills no
#: per-configuration cache a timed job could hit.  The kernel warmup
#: builds a 1009-rule emission, as the timed 2-object+H jobs do, so the
#: first timed round does not also pay the interpreter's first growth
#: to a kernel build's memory footprint.
WARMUP_PROGRAM = ("luindex", 1)
WARMUP_CONFIG = {"worklist": "1-type", "kernel": "2-type+H"}

#: Modules every ``repro analyze`` imports before it reads its input.
SETUP_MODULES = {
    "worklist": (
        "repro.frontend.parser", "repro.frontend.factgen",
        "repro.core.analysis",
    ),
    "kernel": (
        "repro.frontend.parser", "repro.frontend.factgen",
        "repro.core.analysis", "repro.compile.emit", "repro.datalog.kernel",
    ),
}

#: Configurations for which Theorem 6.2 promises equal projections
#: (call-site and object flavours); type flavours promise a superset.
EXACT_FLAVOURS = ("call-site", "object")


@dataclass(frozen=True)
class Job:
    id: int
    shape: str
    scale: int
    config: str
    abstraction: str

    @property
    def program_key(self) -> Tuple[str, int]:
        return (self.shape, self.scale)


def deck(backend: str, seed: int, tiny: bool) -> List[Job]:
    """One round of jobs, in a seeded order.  Every (program, scale,
    configuration) runs under both abstractions."""
    if backend == "worklist":
        cells = [
            (config, shape, scale)
            for (shape, scale) in WORKLIST_PROGRAMS
            for config in WORKLIST_CONFIGS
        ]
    else:
        cells = list(KERNEL_CELLS)
    if tiny:
        cells = [(config, shape, 1) for (config, shape, _scale) in cells]
        if backend == "kernel":
            cells = cells[:1] + cells[-1:]
    jobs = [
        (config, shape, scale, abstraction)
        for (config, shape, scale) in cells
        for abstraction in ABSTRACTIONS
    ]
    random.Random(seed).shuffle(jobs)
    return [
        Job(index, shape, scale, config, abstraction)
        for index, (config, shape, scale, abstraction) in enumerate(jobs)
    ]


def program_seed(backend: str, seed: int) -> int:
    """The run seed the programs of ``backend``'s deck are built from."""
    return seed if backend == "worklist" else 0


def render_sources(jobs: List[Job], seed: int, work: WorkDir) -> Dict:
    """(shape, scale) -> source file, rendered outside any timing: the
    jobs' programs from ``seed``, the warmup program from seed 0."""
    from repro.frontend.printer import format_program
    from specs import program_for

    paths = {}
    wanted = {key: seed for key in {job.program_key for job in jobs}}
    wanted.setdefault(WARMUP_PROGRAM, 0)
    for (shape, scale), used in sorted(wanted.items()):
        path = work.file(f"{shape}-{scale}.java")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(format_program(program_for(shape, scale, used)))
        paths[shape, scale] = path
    return paths


def run_worker(backend: str, jobs: List[Job], sources: Dict, seconds: float,
               trace: bool, work: WorkDir, tag: str,
               corrupt_job: Optional[int] = None) -> Tuple[Dict, List[Dict]]:
    """Start the fresh interpreter that runs the timed jobs."""
    plan = {
        "backend": backend,
        "rounds": max(1, round(seconds / ROUND_SECONDS[backend])),
        "trace": trace,
        "corrupt_job": corrupt_job,
        "warmup": [
            {"source": sources[WARMUP_PROGRAM],
             "config": WARMUP_CONFIG[backend], "abstraction": abstraction}
            for abstraction in ABSTRACTIONS
        ],
        "jobs": [
            {"id": job.id, "source": sources[job.program_key],
             "config": job.config, "abstraction": job.abstraction}
            for job in jobs
        ],
        "out": work.file(f"{tag}-outputs.pickle"),
        "summary": work.file(f"{tag}-summary.json"),
    }
    plan_path = work.file(f"{tag}-plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    run_child(
        [os.path.join(HERE, "analyze_worker.py"), plan_path],
        timeout=max(150.0, 8 * seconds),
    )
    with open(plan["summary"], encoding="utf-8") as handle:
        summary = json.load(handle)
    records = []
    with open(plan["out"], "rb") as handle:
        while True:
            try:
                records.append(pickle.load(handle))
            except EOFError:
                break
    return summary, records


# -- checks -----------------------------------------------------------------

def check_worklist(jobs: List[Job], sources: Dict,
                   records: List[Dict]) -> List[str]:
    """Theorem 6.2 twins plus concrete-execution soundness."""
    from repro.bench.concrete import run_concrete
    from repro.core.config import config_by_name
    from repro.frontend.parser import parse_program

    by_id = {job.id: job for job in jobs}
    first = {r["job"]: r for r in records if r["round"] == 0}
    twin = {
        (job.program_key, job.config, job.abstraction): job.id
        for job in jobs
    }
    observed = {}
    for key, path in sources.items():
        if any(job.program_key == key for job in jobs):
            with open(path, encoding="utf-8") as handle:
                observed[key] = run_concrete(parse_program(handle.read()))
    problems = {}
    for job_id, record in first.items():
        job = by_id[job_id]
        pts, calls = set(record["pts"]), set(record["calls"])
        seen = observed[job.program_key]
        if not seen.var_points_to <= pts or not seen.call_edges <= calls:
            problems[job_id] = "misses a concretely observed binding or edge"
            continue
        if job.abstraction != TS:
            continue
        other = first[twin[(job.program_key, job.config, CS)]]
        other_pts, other_calls = set(other["pts"]), set(other["calls"])
        flavour = config_by_name(job.config).flavour.value
        if flavour in EXACT_FLAVOURS:
            ok = pts == other_pts and calls == other_calls
        else:
            ok = pts >= other_pts and calls >= other_calls
        if not ok:
            problems[job_id] = "breaks Theorem 6.2 against its twin"
    return attempt_failures(records, problems)


def check_kernel(jobs: List[Job], sources: Dict,
                 records: List[Dict]) -> List[str]:
    """Each attempt's six relations against a worklist solve."""
    from repro.core.analysis import PointerAnalysis
    from repro.core.config import config_by_name
    from repro.frontend.factgen import generate_facts
    from repro.frontend.parser import parse_program

    expected = {}
    for job in jobs:
        with open(sources[job.program_key], encoding="utf-8") as handle:
            facts = generate_facts(parse_program(handle.read()))
        result = PointerAnalysis(
            facts, config_by_name(job.config, job.abstraction)
        ).run()
        expected[job.id] = {
            name: rows_digest(getattr(result, name))
            for name in ("pts", "hpts", "call", "reach", "spts", "texc")
        }
    failures = []
    for record in records:
        wrong = sorted(
            name for name, digest in record["relations"].items()
            if expected[record["job"]][name] != digest
        )
        if wrong:
            failures.append(
                f"job {record['job']} round {record['round']}: "
                f"{', '.join(wrong)} differ from the worklist solver"
            )
    return failures


def attempt_failures(records: List[Dict], problems: Dict[int, str]) -> List[str]:
    """One failure per attempt whose job failed its first-round check
    or whose output differs from that first attempt's."""
    first_digest = {r["job"]: r["digest"] for r in records if r["round"] == 0}
    failures = []
    for record in records:
        job_id = record["job"]
        if job_id in problems:
            failures.append(
                f"job {job_id} round {record['round']}: {problems[job_id]}"
            )
        elif record["digest"] != first_digest[job_id]:
            failures.append(
                f"job {job_id} round {record['round']}: output differs"
                " from its first attempt"
            )
    return failures


# -- metrics ----------------------------------------------------------------

def end_to_end(jobs: List[Job], summary: Dict, setup: List[float]) -> Dict:
    by_id = {job.id: job for job in jobs}
    times = defaultdict(list)
    for job_id, _round, seconds in summary["timings"]:
        times[by_id[job_id].abstraction].append(seconds * 1000.0)
    reads = [seconds * 1000.0 for seconds in summary["reads"]]
    every = times[TS] + times[CS]
    count = len(every)
    return {
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(summary["peak_rss_mb"], "MB"),
        "ts_job_p50_ms": metric(median(times[TS]), "ms"),
        "cs_job_p50_ms": metric(median(times[CS]), "ms"),
        "job_p90_ms": metric(percentile(every, 0.90), "ms"),
        "jobs_per_s": metric(count / summary["timed_seconds"], "jobs/s"),
        "ops_per_s": metric(count / summary["timed_seconds"], "ops/s"),
        # A batch analysis has no separate read or update: a user who
        # changed the program waits for a whole job (the update), and
        # reading answers out of a finished solve is the projection.
        "update_p50_ms": metric(median(every), "ms"),
        "read_p50_ms": metric(median(reads), "ms"),
        "read_p90_ms": metric(percentile(reads, 0.90), "ms"),
    }


def ratio_notes(jobs: List[Job], summary: Dict) -> List[str]:
    """Transformer-string ÷ context-string job time per configuration
    (medians over every program and attempt), as in paper Figure 6."""
    by_id = {job.id: job for job in jobs}
    times = defaultdict(list)
    for job_id, _round, seconds in summary["timings"]:
        job = by_id[job_id]
        times[job.config, job.abstraction].append(seconds)
    lines = []
    for config in WORKLIST_CONFIGS:
        if (config, TS) not in times:
            continue
        ts, cs = median(times[config, TS]), median(times[config, CS])
        lines.append(
            f"  ts/cs {config:10s} {ts * 1000:9.1f} ms / {cs * 1000:9.1f} ms"
            f" = {ts / cs:.3f}"
        )
    return lines


LAYER_SPANS = {
    "frontend.parse": "frontend.parse_ms",
    "frontend.factgen": "frontend.factgen_ms",
    "core.project": "core.project_ms",
    "compile.emit": "compile.emit_ms",
    "compile.codegen": "compile.codegen_ms",
    "compile.pycompile": "compile.pycompile_ms",
    "datalog.intern": "datalog.intern_ms",
    "datalog.solve": "datalog.solve_ms",
    "datalog.decode": "datalog.decode_ms",
}


def per_layer(jobs: List[Job], summary: Dict) -> Dict:
    """Per-layer metrics of the analyze job path from the traced run."""
    by_id = {job.id: job for job in jobs}
    attempts = defaultdict(int)    # abstraction -> traced attempts
    spans = defaultdict(float)     # layer -> summed self ms
    solve = defaultdict(float)     # abstraction -> summed solve ms
    for job_id, _round, layers in summary["self_times"]:
        abstraction = by_id[job_id].abstraction
        attempts[abstraction] += 1
        for name, seconds in layers.items():
            spans[name] += seconds * 1000.0
        solve[abstraction] += layers.get("core.solve", 0.0) * 1000.0
    # Layer times are means per job, so they add up to the mean job
    # time and a layer's share of it is its share of the work.
    total = sum(attempts.values())
    out = {
        name: metric(spans[span] / total, "ms")
        for span, name in LAYER_SPANS.items()
    }
    for abstraction, suffix in ((TS, "ts"), (CS, "cs")):
        out[f"core.solve_ms.{suffix}"] = metric(
            solve[abstraction] / attempts[abstraction], "ms"
        )
    counts = {int(k): v for k, v in summary["counts"].items()}

    def mean(key: str, abstraction: Optional[str] = None) -> float:
        values = [
            c[key] for job_id, c in counts.items()
            if key in c and abstraction in (None, by_id[job_id].abstraction)
        ]
        return sum(values) / len(values) if values else 0.0

    for abstraction, suffix in ((TS, "ts"), (CS, "cs")):
        out[f"core.derived_facts.{suffix}"] = metric(
            mean("derived", abstraction), "facts"
        )
        out[f"core.rule_firings.{suffix}"] = metric(
            mean("firings", abstraction), "firings"
        )
    derived = sum(c.get("derived", 0) for c in counts.values())
    duplicate = sum(c.get("deduplicated", 0) for c in counts.values())
    out["core.useful_derivation_ratio"] = metric(
        derived / (derived + duplicate) if derived + duplicate else 0.0,
        "ratio",
    )
    out["compile.rules"] = metric(mean("rules"), "rules")
    out["compile.kernel_functions"] = metric(
        mean("kernel_functions"), "functions"
    )
    rules = sum(c.get("rules", 0) for c in counts.values())
    live = sum(c.get("live_rules", 0) for c in counts.values())
    out["compile.live_rule_ratio"] = metric(
        live / rules if rules else 0.0, "ratio"
    )
    out["datalog.rounds"] = metric(mean("rounds"), "count")
    out["datalog.rule_evaluations"] = metric(
        mean("rule_evaluations"), "count"
    )
    out["store.probes"] = metric(mean("probes"), "count")
    out["store.inserts"] = metric(mean("inserts"), "count")
    denominators = {int(k): v for k, v in summary["denominators"].items()}
    if denominators:
        kernel_time = sum(
            seconds for job_id, round_index, seconds in summary["timings"]
            if round_index == 0 and job_id in denominators
        )
        out["datalog.kernel_vs_worklist"] = metric(
            kernel_time / sum(denominators.values()), "ratio"
        )
    else:
        out["datalog.kernel_vs_worklist"] = metric(0.0, "ratio")
    return out


def run_analyze(backend: str, seed: int, seconds: float, trace: bool,
                tiny: bool = False, corrupt: bool = False) -> Tuple:
    """Run one analyze workload; returns (metrics, attempted, failures,
    notes)."""
    jobs = deck(backend, seed, tiny)
    corrupt_job = None
    if corrupt:
        exact = [
            job for job in jobs if job.abstraction == TS
            and job.config in ("1-call", "2-object+H")
        ]
        corrupt_job = exact[0].id
    with WorkDir(f"analyze-{backend}") as work:
        sources = render_sources(jobs, program_seed(backend, seed), work)
        setup = time_imports(SETUP_MODULES[backend], repeats=3 if tiny else 7)
        check = check_worklist if backend == "worklist" else check_kernel
        notes = []
        summary, records = run_worker(
            backend, jobs, sources, seconds, False, work, "plain",
            corrupt_job,
        )
        failures = check(jobs, sources, records)
        attempted = len(records)
        metrics = end_to_end(jobs, summary, setup)
        notes += ratio_notes(jobs, summary)
        if trace:
            traced, traced_records = run_worker(
                backend, jobs, sources, seconds, True, work, "traced",
                corrupt_job,
            )
            failures += check(jobs, sources, traced_records)
            attempted += len(traced_records)
            layers = per_layer(jobs, traced)
            traced_e2e = end_to_end(jobs, traced, setup)
            notes.append(layer_table(traced))
            for name in ("ts_job_p50_ms", "cs_job_p50_ms", "jobs_per_s"):
                base = metrics[name]["value"]
                with_trace = traced_e2e[name]["value"]
                notes.append(
                    f"tracing overhead {name}: untraced {base:.3f},"
                    f" traced {with_trace:.3f},"
                    f" traced - untraced {with_trace - base:+.3f}"
                    f" ({(with_trace - base) / base:+.1%})"
                )
            return layers, attempted, failures, notes
        return metrics, attempted, failures, notes


def layer_table(summary: Dict) -> str:
    """Self time per layer, summed over the traced run's jobs."""
    totals = defaultdict(float)
    for _job, _round, layers in summary["self_times"]:
        for name, seconds in layers.items():
            totals[name] += seconds
    whole = sum(totals.values()) or 1.0
    lines = ["self time by layer (traced run, all attempts):"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"    {name:22s} {seconds * 1000.0:12.1f} ms"
            f" {seconds / whole:7.1%}"
        )
    return "\n".join(lines)
