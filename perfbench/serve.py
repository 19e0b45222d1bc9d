"""The ``serve-edit`` workload: ``repro serve --async`` under edits.

Outside timing, the orchestrator builds two tenant snapshots from
different programs, configurations and abstractions, and pre-generates
each tenant's op stream: whole rounds of 25 operations — 20 reads
(``points_to``, ``alias``, ``callees``, ``fields_of``), 2 ``check`` and
3 ``update``.  Updates alternate a single-statement edit of
``repro.incremental.edits.random_edits`` (additions and removals) with
its undo.

The gateway runs as its own process; one client process
(``serve_client.py``) drives it over TCP in a closed loop with one
connection per tenant.  Afterwards every answer is checked apart from
the timed path:

* any ``ok: false`` answer is a failed operation;
* read and check answers seen at sampled generations must equal those
  of a from-scratch worklist solve of that tenant's facts with the same
  edits applied;
* after the run, every variable's points-to set must equal a scratch
  solve of the fully edited facts.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from common import (
    HERE, ROOT, WorkDir, child_env, median, metric, percentile, run_child,
)

#: alias -> (shape, scale, configuration, abstraction).
TENANTS = {
    "ts": ("xalan", 4, "2-object+H", "transformer-string"),
    "cs": ("pmd", 4, "1-call+H", "context-string"),
}
#: One round per tenant, by operation kind: 80 % reads, 8 % check,
#: 12 % update.
ROUND = (
    ("points_to", 8), ("alias", 4), ("callees", 4), ("fields_of", 4),
    ("check", 2), ("update", 3),
)
READS = ("points_to", "alias", "callees", "fields_of", "check")
#: Generations checked against a scratch solve, per tenant.
SAMPLED_GENERATIONS = 8
#: Gateway spawns timed for set-up (the last one serves the run).
SETUP_SPAWNS = 5


class Tenant:
    """One tenant's inputs: facts, snapshot, edits and op stream."""

    def __init__(self, alias: str, seed: int, tiny: bool, work: WorkDir,
                 rounds: int):
        from repro.core.config import config_by_name
        from repro.frontend.factgen import generate_facts
        from repro.frontend.parser import parse_program
        from repro.frontend.printer import format_program
        from repro.incremental.edits import random_edits
        from repro.service import AnalysisService
        from specs import program_for

        shape, scale, config, abstraction = TENANTS[alias]
        if tiny:
            scale = 1
        self.alias = alias
        self.config = config_by_name(config, abstraction)
        source = format_program(program_for(shape, scale, seed))
        self.facts = generate_facts(parse_program(source))
        self.snapshot = work.file(f"{alias}.snap")
        AnalysisService.from_facts(
            self.facts, self.config
        ).save_snapshot(self.snapshot)
        rng = random.Random(f"{seed}-{alias}")
        # Each edit is followed by its undo, so the program stays one
        # statement away from its original: a long run measures the
        # same program throughout instead of one that drifts further
        # with every accumulated random edit.
        updates = 1 + rounds * dict(ROUND)["update"]
        self.deltas = []
        while len(self.deltas) < updates:
            [(_kind, delta)] = random_edits(
                self.facts, 1, seed=rng.randrange(1 << 30)
            )
            self.deltas += [delta, delta.inverted()]
        self.warmup, self.rounds = self._op_stream(rng, rounds)

    def _targets(self):
        from repro.service.service import variables_of

        facts = self.facts
        variables = sorted(variables_of(facts))
        sites = sorted(
            {row[0] for row in facts.virtual_invoke}
            | {row[0] for row in facts.static_invoke}
        )
        heaps = sorted({row[0] for row in facts.assign_new})
        return variables, sites, heaps

    def _op_stream(self, rng: random.Random, rounds: int):
        variables, sites, heaps = self._targets()
        next_delta = iter(self.deltas)
        counter = iter(range(1 << 40))

        def request(kind: str) -> Tuple[str, str]:
            body = {"id": next(counter), "op": kind, "tenant": self.alias}
            if kind == "points_to":
                body["var"] = rng.choice(variables)
            elif kind == "alias":
                body["a"], body["b"] = rng.choice(variables), rng.choice(
                    variables
                )
            elif kind == "callees":
                body["site"] = rng.choice(sites)
            elif kind == "fields_of":
                body["heap"] = rng.choice(heaps)
            elif kind == "update":
                body["delta"] = next(next_delta).to_json()
            return kind, json.dumps(body)

        warmup = [
            request(kind)
            for kind in ("update", "points_to", "alias", "callees",
                         "fields_of", "check")
        ]
        stream = []
        for _ in range(rounds):
            kinds = [kind for kind, count in ROUND for _ in range(count)]
            rng.shuffle(kinds)
            stream.append([request(kind) for kind in kinds])
        return warmup, stream

    def verify_variables(self) -> List[str]:
        """Every variable the initial facts or any edit mentions."""
        from repro.incremental.delta import copy_facts
        from repro.service.service import variables_of

        rolling = copy_facts(self.facts)
        seen = set(variables_of(rolling))
        for delta in self.deltas:
            delta.apply_to(rolling)
            seen |= variables_of(rolling)
        return sorted(seen)


# -- the gateway process ------------------------------------------------------

class Gateway:
    """``python -m repro serve --async`` as its own process."""

    def __init__(self, tenants: List[Tenant]):
        command = [
            sys.executable, "-m", "repro", "serve", "--async",
            "--tcp", "127.0.0.1:0",
        ]
        for tenant in tenants:
            command += ["--snapshot", f"{tenant.alias}={tenant.snapshot}"]
        self.lines: List[str] = []
        self._ready = threading.Event()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 60
        while not self._ready.wait(timeout=0.05):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    "gateway did not start listening:\n"
                    + "".join(self.lines)
                )
        self.setup_seconds = time.perf_counter() - start
        listening = next(l for l in self.lines if "listening on" in l)
        address = listening.split("listening on", 1)[1].split()[0]
        host, _, port = address.rpartition(":")
        self.address = (host, int(port))

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            if "listening on" in line:
                self._ready.set()

    def stop(self) -> float:
        """SIGTERM (graceful drain), reap; the process's peak RSS in MB
        (0 when it had already exited)."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)  # reaps a dead process
        if self.proc.returncode is not None:
            self._reader.join(timeout=10)
            return 0.0
        deadline = time.monotonic() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._reader.join(timeout=10)
        return usage.ru_maxrss / 1024.0


def start_gateways(tenants: List[Tenant], spawns: int) -> Tuple[Gateway, List[float]]:
    """Time ``spawns`` gateway start-ups; keep the last one running."""
    samples = []
    gateway = None
    for index in range(spawns):
        gateway = Gateway(tenants)
        samples.append(gateway.setup_seconds)
        if index < spawns - 1:
            gateway.stop()
    return gateway, samples


# -- checks -------------------------------------------------------------------

def expected_answer(result, facts, kind: str, request: Dict):
    """The answer a scratch solve gives, in wire form."""
    if kind == "points_to":
        return sorted(result.points_to(request["var"]))
    if kind == "alias":
        return result.may_alias(request["a"], request["b"])
    if kind == "callees":
        return sorted(
            method for (site, method) in result.call_graph()
            if site == request["site"]
        )
    if kind == "fields_of":
        out = defaultdict(set)
        for (base, field, pointee) in result.hpts_ci():
            if base == request["heap"]:
                out[field].add(pointee)
        return {field: sorted(sites) for field, sites in sorted(out.items())}
    from repro.checkers.framework import run_checks

    return run_checks(result, facts).to_json()["digest"]


def check_tenant(tenant: Tenant, outcome: Dict) -> List[str]:
    """Sampled generations and the final state against scratch solves."""
    from repro.core.analysis import PointerAnalysis
    from repro.incremental.delta import copy_facts

    failures = []
    sent = [
        (kind, json.loads(line))
        for round_ops in tenant.rounds[:outcome["rounds"]]
        for kind, line in round_ops
    ]
    by_generation = defaultdict(list)
    for (kind, request), record in zip(sent, outcome["records"]):
        _round, _kind, _seconds, ok, generation, answer = record
        if not ok:
            failures.append(f"{tenant.alias}: {kind} answered ok:false")
        elif kind in READS:
            by_generation[generation].append((kind, request, answer))
    generations = sorted(by_generation)
    step = max(1, len(generations) // SAMPLED_GENERATIONS)
    sampled = set(generations[::step][:SAMPLED_GENERATIONS])
    if generations:
        sampled.add(generations[-1])
    updates = sum(1 for kind, _ in sent if kind == "update") + 1
    rolling = copy_facts(tenant.facts)
    for generation in range(updates + 1):
        if generation in sampled:
            result = PointerAnalysis(rolling, tenant.config).run()
            for kind, request, answer in by_generation[generation]:
                wanted = expected_answer(result, rolling, kind, request)
                got = answer[0] if kind == "check" else answer
                if got != wanted:
                    failures.append(
                        f"{tenant.alias}: {kind} at generation"
                        f" {generation} differs from a scratch solve"
                    )
        if generation < updates:
            tenant.deltas[generation].apply_to(rolling)
    result = PointerAnalysis(rolling, tenant.config).run()
    wrong = [
        var for var, answer in outcome["final"].items()
        if answer != sorted(result.points_to(var))
    ]
    if wrong:
        failures.append(
            f"{tenant.alias}: final points-to of {len(wrong)} variable(s)"
            f" (e.g. {wrong[0]}) differ from a scratch solve"
        )
    return failures


# -- metrics ------------------------------------------------------------------

def end_to_end(outcome: Dict, setup: List[float], peak_mb: float) -> Dict:
    latency = defaultdict(list)
    every = []
    for alias, tenant in outcome["tenants"].items():
        for _round, kind, seconds, _ok, _gen, _answer in tenant["records"]:
            ms = seconds * 1000.0
            latency[kind if kind == "update" else "read"].append(ms)
            latency[alias].append(ms)
            every.append(ms)
    window = max(t["timed_seconds"] for t in outcome["tenants"].values())
    rate = len(every) / window
    return {
        "setup_s": metric(median(setup), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        # A served "job" is one request; each tenant runs one abstraction.
        "ts_job_p50_ms": metric(median(latency["ts"]), "ms"),
        "cs_job_p50_ms": metric(median(latency["cs"]), "ms"),
        "job_p90_ms": metric(percentile(every, 0.90), "ms"),
        "jobs_per_s": metric(rate, "jobs/s"),
        "ops_per_s": metric(rate, "ops/s"),
        "read_p50_ms": metric(median(latency["read"]), "ms"),
        "read_p90_ms": metric(percentile(latency["read"], 0.90), "ms"),
        "update_p50_ms": metric(median(latency["update"]), "ms"),
    }


def run_serve(seed: int, seconds: float, trace: bool, tiny: bool = False,
              corrupt: bool = False):
    """Run serve-edit; returns (metrics, attempted, failures, notes)."""
    # Generous headroom: the host runs about 8 rounds per tenant a
    # second; a gateway several times faster must not run dry.
    rounds = max(4, int(seconds * 40))
    notes = []
    with WorkDir("serve-edit") as work:
        tenants = [
            Tenant(alias, seed, tiny, work, rounds) for alias in TENANTS
        ]
        gateway, setup = start_gateways(
            tenants, 2 if tiny else SETUP_SPAWNS
        )
        try:
            plan = {
                "host": gateway.address[0],
                "port": gateway.address[1],
                "seconds": seconds,
                "out": work.file("client.json"),
                "tenants": [
                    {"alias": t.alias, "warmup": t.warmup,
                     "rounds": t.rounds, "verify": t.verify_variables()}
                    for t in tenants
                ],
            }
            with open(work.file("client-plan.json"), "w") as handle:
                json.dump(plan, handle)
            run_child(
                [os.path.join(HERE, "serve_client.py"),
                 work.file("client-plan.json")],
                timeout=max(120.0, 4 * seconds),
            )
        finally:
            peak_mb = gateway.stop()
        with open(plan["out"], encoding="utf-8") as handle:
            outcome = json.load(handle)
        if corrupt:
            corrupt_answer(outcome)
        failures = []
        attempted = 0
        for tenant in tenants:
            result = outcome["tenants"][tenant.alias]
            attempted += len(result["records"])
            if result["exhausted"]:
                notes.append(
                    f"{tenant.alias}: op stream exhausted before the window"
                )
            failures += check_tenant(tenant, result)
        if trace:
            from serve_replay import replay_layers

            layers, table = replay_layers(tenants, outcome)
            notes.append(table)
            notes.append(
                "tracing overhead: none on the end-to-end figures — the"
                " replay and the stats read run after the timed window"
            )
            return layers, attempted, failures, notes
        return end_to_end(outcome, setup, peak_mb), attempted, failures, notes


def corrupt_answer(outcome: Dict) -> None:
    """Drop one heap from one final points-to answer: the checks'
    self-test."""
    for tenant in outcome["tenants"].values():
        for var, answer in sorted(tenant["final"].items()):
            if answer:
                tenant["final"][var] = answer[1:]
                return
