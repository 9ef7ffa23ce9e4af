"""Helpers shared by ``run.py`` and the processes it starts.

Every script in this directory runs from the root of a checkout: the
program under test is imported from ``./src`` and nothing else, and all
scratch files live under ``./.perfbench`` (removed when a run ends).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, Iterable, Sequence

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".perfbench")
#: ``refs.json`` records seeds 0 .. RECORDED_SEEDS - 1.
RECORDED_SEEDS = 100


def manifest_units(section: str) -> Dict[str, str]:
    """Name -> unit of every metric ``BENCHMARK.json`` lists in ``section``
    (``end_to_end`` or ``per_layer``): the result line carries exactly these."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


class GateFailure(Exception):
    """A correctness gate failed: the program gave a wrong answer."""


def import_program() -> None:
    """Make ``import repro`` resolve to ``./src/repro`` or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            "no program source at ./src/repro: run from the root of a checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not ./src")


def child_env() -> Dict[str, str]:
    """Environment for processes under test: the program from ./src, and
    none of the program's own observability switches (REPRO_*)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def cpu_count() -> int:
    return max(1, len(os.sched_getaffinity(0)))


def now() -> float:
    """CLOCK_MONOTONIC seconds: comparable across processes on one host."""
    return time.monotonic()


def peak_rss_kib() -> int:
    """Largest resident set of this process and its reaped children."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def proc_peak_rss_kib(pid: int) -> int:
    """VmHWM of a live process (Linux), in KiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Input digests: the benchmark's own canonical form, independent of the
# program's cache-key code (which is one of the paths being measured).

def stable(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__] + [
            [f.name, stable(getattr(obj, f.name))]
            for f in dataclasses.fields(obj)
        ]
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, (set, frozenset)):
        return sorted((stable(x) for x in obj), key=_dump)
    if isinstance(obj, dict):
        return sorted(([stable(k), stable(v)] for k, v in obj.items()), key=_dump)
    if isinstance(obj, (list, tuple)):
        return [stable(x) for x in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"no stable form for {type(obj).__name__}")


def _dump(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(_dump(stable(obj)).encode("utf-8")).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_refs() -> Dict[str, Any]:
    path = os.path.join(HERE, "refs.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_inputs(workload: str, seed: int, inputs_digest: str, seconds: int = 0) -> bool:
    """Refuse a run whose generated inputs differ from the recorded ones.

    Returns True when the seed (and, for workloads whose stream length
    follows ``--seconds``, that length) has a recorded digest and it
    matched; False when nothing is recorded for it.
    """
    ref = load_refs().get(workload, {}).get(str(seed))
    if ref is None or ref.get("seconds", 0) != seconds:
        return False
    if ref["inputs"] != inputs_digest:
        raise GateFailure(
            f"{workload} seed {seed}: generated inputs digest "
            f"{inputs_digest[:16]} differs from the recorded "
            f"{ref['inputs'][:16]}; the input generators changed, so this "
            "run is not comparable with earlier ones"
        )
    return True


# ----------------------------------------------------------------------
# Statistics

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# Output

def emit(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    units: Dict[str, str],
    details: Dict[str, Any],
) -> None:
    """Print the details line, then the result object as the last line."""
    print("perfbench details: " + json.dumps(details, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, data: Any, indent: Any = None) -> None:
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=indent)
    os.replace(tmp, path)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_child(script: str, spec: Dict[str, Any], timeout: float = 150.0) -> Dict[str, Any]:
    """Run ``perfbench/<script>`` on ``spec`` in a fresh interpreter.

    The child writes its findings to ``spec["out"]``; ``launched_at`` is
    the monotonic time just before the process was created, so the child
    can report set-up time from launch.
    """
    import subprocess

    os.makedirs(WORK, exist_ok=True)
    tag = f"{script.split('.')[0]}-{os.getpid()}-{time.monotonic_ns()}"
    spec = dict(spec, out=os.path.join(WORK, f"{tag}.out.json"))
    spec_path = os.path.join(WORK, f"{tag}.spec.json")
    write_json(spec_path, spec)
    launched = now()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), spec_path],
        cwd=ROOT,
        env=child_env(),
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with status {proc.returncode}")
    out = read_json(spec["out"])
    os.unlink(spec["out"])
    os.unlink(spec_path)
    out["launched_at"] = launched
    return out
