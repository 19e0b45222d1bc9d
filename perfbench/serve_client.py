"""The serve-edit load: one client process, one connection per tenant.

Usage: ``python serve_client.py PLAN.json``.  Each connection runs a
closed loop — it sends its next request only after the previous answer
arrived, as an editor or a CI checker waits for each answer — over
whole rounds of its tenant's pre-generated op stream, until its timed
total is nearest to the plan's ``seconds``.  Requests are encoded
before the timed window; the client-observed latency covers the write,
the gateway's work and the read of the answer line.

After the window the client reads the gateway's own ``stats`` op, then
asks every tenant for the points-to set of every variable (pipelined,
outside timing) so the orchestrator can compare the final state with a
from-scratch solve.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

#: Requests in flight per connection while reading the final state;
#: well under the gateway's admission limit.
VERIFY_WINDOW = 64


async def call(reader, writer, line: bytes):
    writer.write(line)
    await writer.drain()
    return json.loads(await reader.readline())


def summarize(response: dict, kind: str):
    """What the orchestrator needs of one answer."""
    if not response.get("ok"):
        return None
    result = response["result"]
    if kind == "check":
        return [result["digest"], result["generation"]]
    if kind == "update":
        return result["generation"]
    return result


async def tenant_loop(host, port, tenant, seconds):
    reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
    generation = 0
    for kind, line in tenant["warmup"]:
        response = await call(reader, writer, line.encode() + b"\n")
        if not response.get("ok"):
            raise RuntimeError(f"warmup request failed: {response}")
        if kind == "update":
            generation = summarize(response, kind)
    records = []
    timed = 0.0
    rounds = 0
    for round_ops in tenant["rounds"]:
        round_start = timed
        for kind, line in round_ops:
            encoded = line.encode() + b"\n"
            start = time.perf_counter()
            response = await call(reader, writer, encoded)
            seconds_taken = time.perf_counter() - start
            timed += seconds_taken
            answer = summarize(response, kind)
            if kind == "update" and answer is not None:
                generation = answer
            records.append([
                rounds, kind, seconds_taken, bool(response.get("ok")),
                generation, answer,
            ])
        rounds += 1
        if timed + (timed - round_start) / 2 >= seconds:
            break
    return reader, writer, {
        "records": records, "timed_seconds": timed, "rounds": rounds,
        "exhausted": rounds == len(tenant["rounds"])
        and timed < seconds,
    }


async def verify(reader, writer, alias, variables):
    """points_to of every variable, ``VERIFY_WINDOW`` in flight."""
    answers = {}
    for start in range(0, len(variables), VERIFY_WINDOW):
        chunk = variables[start:start + VERIFY_WINDOW]
        for offset, var in enumerate(chunk):
            writer.write(json.dumps({
                "id": start + offset, "op": "points_to", "var": var,
                "tenant": alias,
            }).encode() + b"\n")
        await writer.drain()
        for _ in chunk:
            response = json.loads(await reader.readline())
            var = variables[response["id"]]
            answers[var] = response["result"] if response.get("ok") else None
    return answers


async def main_async(plan):
    host, port = plan["host"], plan["port"]
    loops = await asyncio.gather(*(
        tenant_loop(host, port, tenant, plan["seconds"])
        for tenant in plan["tenants"]
    ))
    out = {"tenants": {}}
    reader, writer = loops[0][0], loops[0][1]
    stats = await call(
        reader, writer, json.dumps({"id": -1, "op": "stats"}).encode() + b"\n"
    )
    out["gateway_stats"] = stats.get("result")
    for tenant, (reader, writer, result) in zip(plan["tenants"], loops):
        result["final"] = await verify(
            reader, writer, tenant["alias"], tenant["verify"]
        )
        out["tenants"][tenant["alias"]] = result
        writer.close()
        await writer.wait_closed()
    return out


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    out = asyncio.run(main_async(plan))
    with open(plan["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
