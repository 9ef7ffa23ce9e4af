"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload audit_cold --seed 3 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the work untraced, then traced through wrappers
around each layer's public calls, and reports the per-layer metrics (see
``NOTES.md``).  The last line of standard output is the result object;
a failed correctness gate prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import traceback

import common

WORKLOADS = ("audit_cold", "audit_warm", "device_stream", "icc_enforce")


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    if workload in ("audit_cold", "audit_warm"):
        import audit as module
    elif workload == "device_stream":
        import device as module
    else:
        import icc as module
    if trace:
        import layers

        return layers.traced(module, workload, seed, seconds)
    return module.timed(workload, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    try:
        common.import_program()
    except common.BenchError as exc:
        common.log(str(exc))
        return 2
    shutil.rmtree(common.WORK, ignore_errors=True)
    os.makedirs(common.WORK)
    units = common.manifest_units("per_layer" if args.trace else "end_to_end")
    # Fold every seed onto the recorded ones, so that each run's inputs and
    # audit findings are checked against the digests in refs.json.
    input_seed = args.seed % common.RECORDED_SEEDS
    try:
        attempted, failed, metrics, details = run_workload(
            args.workload, input_seed, args.seconds, bool(args.trace)
        )
        if set(metrics) != set(units):
            raise common.BenchError(
                f"{args.workload} measured {sorted(metrics)}, "
                f"BENCHMARK.json lists {sorted(units)}"
            )
    except common.GateFailure as exc:
        common.log(f"correctness gate failed: {exc}")
        common.emit(False, 1, 1, {}, {}, {"gate": str(exc)})
        return 1
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, input_seed=input_seed,
                   seconds=args.seconds)
    common.emit(True, attempted, failed, metrics, units, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
