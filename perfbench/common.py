"""Shared plumbing: paths, child interpreters, statistics, the result line.

Nothing here imports the program under test, so the orchestrator can
report a missing ``src/`` tree as an error before anything is timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
#: Scratch files of one run live below here and are removed at its end.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def require_source_tree() -> None:
    """Fail loudly when the program's sources are not beside us."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources under {SRC}; run from a"
            " checkout that holds src/repro"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the program on the path,
    hash seed pinned so set iteration order repeats run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkDir:
    """A private scratch directory inside the checkout."""

    def __init__(self, label: str):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=label + "-", dir=WORK_ROOT)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still has files there


def run_child(args: Sequence[str], timeout: float) -> subprocess.CompletedProcess:
    """Run one fresh interpreter to completion; raise on failure."""
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"child {' '.join(args)} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return proc


def time_imports(modules: Iterable[str], repeats: int) -> List[float]:
    """Wall seconds for fresh interpreters that import ``modules`` —
    what every ``repro analyze`` pays before it reads its input.  One
    unmeasured spawn first, so byte-code caches exist."""
    code = "import " + ", ".join(modules)
    run_child(["-c", code], timeout=60)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run_child(["-c", code], timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def rows_digest(rows: Iterable) -> str:
    """Order-insensitive digest of a set of result rows."""
    return hashlib.sha256(
        "\n".join(sorted(repr(row) for row in rows)).encode("utf-8")
    ).hexdigest()


def metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def print_result(correct: bool, attempted: int, failed: int,
                 metrics: Dict[str, Dict]) -> None:
    """Human-readable lines, then the one-line JSON result (last)."""
    for name in sorted(metrics):
        entry = metrics[name]
        print(f"  {name:34s} {entry['value']:>14.4f} {entry['unit']}")
    print(f"  attempted={attempted} failed={failed} correct={correct}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)
