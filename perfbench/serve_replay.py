"""serve-edit's per-layer numbers, measured two ways.

* Each tenant's op stream — warmup and the timed ops the client really
  sent, in order — is replayed in process against
  ``AnalysisService.from_snapshot`` through the same request handler
  the gateway runs, with the service's public methods wrapped in spans.
* The gateway's own no-tenant ``stats`` op, read by the client at the
  end of the real run, gives the served read latency from arrival to
  answer and the batch sizes.

The difference between the two views and the client's is where the
time goes between the service and the client: the batch timer and the
wire.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from common import median, metric
from tracing import Recorder


def replay_tenant(tenant, outcome: Dict, recorder: Recorder) -> Dict:
    """Replay one tenant; returns its measured layer samples."""
    from repro.incremental.solver import IncrementalSolver
    from repro.service import AnalysisService
    from repro.service.server import handle_request

    start = time.perf_counter()
    service = AnalysisService.from_snapshot(tenant.snapshot)
    load = time.perf_counter() - start
    deltas: List[Tuple[object, object]] = []
    apply_delta = service.apply_delta

    def capturing(delta):
        result = apply_delta(delta)
        deltas.append((recorder.job, result))
        return result

    service.apply_delta = capturing
    recorder.wrap(service, "query", "service.query")
    recorder.wrap(service, "apply_delta", "service.apply")
    recorder.wrap(service, "check", "checkers.check")
    recorder.wrap(IncrementalSolver, "apply_delta", "incremental.apply")
    handle = recorder.traced(handle_request, "serve.handle")
    sent = [json.loads(line) for _kind, line in tenant.warmup] + [
        json.loads(line)
        for round_ops in tenant.rounds[:outcome["rounds"]]
        for _kind, line in round_ops
    ]
    warm = len(tenant.warmup)
    for index, request in enumerate(sent):
        request.pop("tenant")
        recorder.job = (tenant.alias, index >= warm, request["op"], index)
        handle(service, request)
    recorder.job = None
    recorder.restore()
    timed_updates = [result for job, result in deltas if job[1]]
    return {
        "load_ms": load * 1000.0,
        "hits": service.metrics.cache_hits,
        "misses": service.metrics.cache_misses,
        "rederived": [r.rederived for r in timed_updates],
        "deleted": [r.deleted for r in timed_updates],
        "fallbacks": sum(1 for r in timed_updates if r.fallback),
    }


#: The plain reads; ``check`` is left out of the gateway-vs-client
#: comparison because its service time is two orders larger.
PLAIN_READS = ("points_to", "alias", "callees", "fields_of")


def gateway_read_p50_ms(stats: Dict) -> float:
    """Count-weighted mean of the gateway's per-op p50s over the plain
    reads (the ``stats`` op reports percentiles per op only)."""
    weighted = total = 0
    for op, entry in stats["latency_us"].items():
        if op in PLAIN_READS and entry["count"]:
            weighted += entry["p50_us"] * entry["count"]
            total += entry["count"]
    return weighted / total / 1000.0 if total else 0.0


def client_read_p50_ms(outcome: Dict) -> float:
    """The client-observed p50 over the same plain reads."""
    return median([
        record[2] * 1000.0
        for tenant in outcome["tenants"].values()
        for record in tenant["records"] if record[1] in PLAIN_READS
    ])


def replay_layers(tenants, outcome: Dict) -> Tuple[Dict, str]:
    """Per-layer metrics plus a self-time table for the traced run."""
    recorder = Recorder()
    samples = [
        replay_tenant(t, outcome["tenants"][t.alias], recorder)
        for t in tenants
    ]
    durations = defaultdict(list)   # span -> ms per timed op
    for (job, name, start, end, _parent) in recorder.spans:
        if job is not None and job[1]:
            durations[name].append((end - start) * 1000.0)
    query_ms = median(durations["service.query"] or [0.0])
    client_read = client_read_p50_ms(outcome)
    gateway = outcome["gateway_stats"]
    gateway_read = gateway_read_p50_ms(gateway)
    hits = sum(s["hits"] for s in samples)
    lookups = hits + sum(s["misses"] for s in samples)
    rederived = [n for s in samples for n in s["rederived"]]
    deleted = [n for s in samples for n in s["deleted"]]
    layers = {
        "service.snapshot_load_ms": metric(
            median([s["load_ms"] for s in samples]), "ms"
        ),
        "service.query_ms": metric(query_ms, "ms"),
        "service.cache_hit_ratio": metric(
            hits / lookups if lookups else 0.0, "ratio"
        ),
        "service.apply_ms": metric(
            median(durations["service.apply"] or [0.0]), "ms"
        ),
        "incremental.rederived": metric(
            sum(rederived) / len(rederived) if rederived else 0.0, "count"
        ),
        "incremental.deleted": metric(
            sum(deleted) / len(deleted) if deleted else 0.0, "count"
        ),
        "incremental.fallbacks": metric(
            float(sum(s["fallbacks"] for s in samples)), "count"
        ),
        "checkers.check_ms": metric(
            median(durations["checkers.check"] or [0.0]), "ms"
        ),
        "serve.gateway_read_p50_ms": metric(gateway_read, "ms"),
        "serve.batch_wait_ms": metric(gateway_read - query_ms, "ms"),
        "serve.wire_ms": metric(client_read - gateway_read, "ms"),
        "serve.batch_size_mean": metric(
            gateway["batches"]["mean_size"] or 0.0, "requests"
        ),
    }
    totals = defaultdict(float)
    for job, layer_times in recorder.self_times().items():
        if job is not None and job[1]:
            for name, seconds in layer_times.items():
                totals[name] += seconds
    whole = sum(totals.values()) or 1.0
    lines = ["self time by layer (in-process replay of the timed ops):"]
    for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"    {name:22s} {seconds * 1000.0:12.1f} ms"
            f" {seconds / whole:7.1%}"
        )
    lines.append(
        f"    gateway read p50 {gateway_read:.3f} ms = service query"
        f" {query_ms:.3f} ms + batch wait {gateway_read - query_ms:.3f} ms;"
        f" client read p50 {client_read:.3f} ms"
        f" (plain reads: {', '.join(PLAIN_READS)})"
    )
    return layers, "\n".join(lines)
