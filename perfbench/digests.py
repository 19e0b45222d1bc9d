"""Fact digests of every program the benchmark generates, per seed.

``python3 perfbench/run.py --digests --seed N`` regenerates each program
the three workloads use under seed ``N`` — rendered to source text and
parsed back, as the jobs receive it — and compares
``FactSet.digest()`` with ``perfbench/digests.json``.
``--write-digests`` records the seed's digests there instead.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from analyze import (
    KERNEL_CELLS, WARMUP_PROGRAM, WORKLIST_PROGRAMS, program_seed,
)
from common import HERE
from serve import TENANTS

DIGEST_FILE = os.path.join(HERE, "digests.json")


def programs(seed: int):
    """Every (shape, scale, program seed) a run with ``seed`` generates."""
    keys = {(shape, scale, seed) for (shape, scale) in WORKLIST_PROGRAMS}
    keys.add(WARMUP_PROGRAM + (0,))
    keys |= {
        (shape, scale, program_seed("kernel", seed))
        for (_config, shape, scale) in KERNEL_CELLS
    }
    keys |= {
        (shape, scale, seed) for (shape, scale, _c, _a) in TENANTS.values()
    }
    return sorted(keys)


def seed_digests(seed: int) -> Dict[str, str]:
    from repro.frontend.factgen import generate_facts
    from repro.frontend.parser import parse_program
    from repro.frontend.printer import format_program
    from specs import program_for

    return {
        f"{shape}@{scale}": generate_facts(
            parse_program(format_program(program_for(shape, scale, used)))
        ).digest()
        for shape, scale, used in programs(seed)
    }


def compare_digests(seed: int, write: bool = False) -> int:
    recorded = {}
    if os.path.exists(DIGEST_FILE):
        with open(DIGEST_FILE, encoding="utf-8") as handle:
            recorded = json.load(handle)
    current = seed_digests(seed)
    if write:
        recorded[str(seed)] = current
        with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {len(current)} digests for seed {seed}")
        return 0
    expected = recorded.get(str(seed))
    if expected is None:
        print(f"no digests recorded for seed {seed}")
        return 1
    mismatched = 0
    for name in sorted(set(current) | set(expected)):
        ok = current.get(name) == expected.get(name)
        mismatched += not ok
        print(f"  {name:14s} {current.get(name, '-')[:16]}"
              f" {'ok' if ok else 'MISMATCH'}")
    print(f"seed {seed}: {len(current) - mismatched}/{len(current)} match")
    return 1 if mismatched else 0
