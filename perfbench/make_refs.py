"""Record input digests and oracle findings for a range of seeds.

Usage (from the root of a checkout)::

    python3 perfbench/make_refs.py --seeds 0-99

For every seed: the digest of each workload's generated inputs at
``BENCHMARK.json``'s ``run_seconds`` (the stream lengths follow it), and
for the audits the digest of the per-signature oracle's findings
(``shared_encoding=False``, serial, no cache), all written to
``perfbench/refs.json``.  ``run.py`` refuses a run whose inputs differ
from a recorded digest and checks audit findings against the recorded
oracle.  Regenerate only in a change that edits the benchmark, never in
one that claims a gain.
"""

import argparse
import os
import sys

import common


def record(seed: int, seconds: int):
    import audit
    import device
    import icc
    import inputs

    apks, bundles = inputs.audit_inputs(seed)
    yield "audit", {
        "inputs": common.digest(bundles),
        "findings": audit.oracle_findings(bundles),
    }
    data = inputs.device_inputs(seed, device.cycles_for(seconds))
    yield "device_stream", {"inputs": common.digest(data), "seconds": seconds}
    data = inputs.icc_inputs(seed, icc.CHILDREN, icc.repetitions(seconds), icc.ACTIVATIONS_PER_REP)
    yield "icc_enforce", {"inputs": common.digest(data), "seconds": seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="range such as 0-99")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    common.import_program()
    seconds = common.read_json(os.path.join(common.ROOT, "BENCHMARK.json"))["run_seconds"]
    path = os.path.join(common.HERE, "refs.json")
    refs = common.load_refs()
    for seed in range(int(lo), int(hi or lo) + 1):
        for workload, entry in record(seed, seconds):
            refs.setdefault(workload, {})[str(seed)] = entry
        common.write_json(path, refs, indent=1)
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
