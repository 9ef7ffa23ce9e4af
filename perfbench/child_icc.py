"""One on-device enforcement session in a fresh process (``icc_enforce``).

Usage: ``python3 perfbench/child_icc.py SPEC.json``.  Compiles the
device's long-lived PDP, then for each repetition boots a fresh
``AndroidRuntime`` with the population installed, attaches a
``PolicyEnforcementPoint`` to that PDP and times each ``start_component``
of the repetition's activation list.  Afterwards it replays the same
activations under the linear reference PDP for the correctness gate.
"""

import time

STARTED = time.monotonic()

import contextlib  # noqa: E402
import pickle  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402


def session(apks, policies, schedule, backend, timed):
    from repro.enforcement import (
        AndroidRuntime,
        AuditLog,
        PolicyEnforcementPoint,
        make_pdp,
    )

    import inputs

    now = common.now
    pdp = make_pdp(
        policies,
        backend=backend,
        prompt_callback=inputs.prompt_answer,
        audit=AuditLog(window=2048),
    )
    out = {"reps": [], "latencies_us": [], "errors": [], "ready_at": None}
    for activations in schedule:
        runtime = AndroidRuntime()
        for apk in apks:
            runtime.install(apk)
        pep = PolicyEnforcementPoint(runtime, pdp)
        pep.install()
        if out["ready_at"] is None:
            out["ready_at"] = now()
        failed = 0
        burst0 = now()
        for target in activations:
            t0 = now()
            try:
                runtime.start_component(target)
            except RuntimeError as exc:  # e.g. the dispatch budget: a failure
                failed += 1
                out["errors"].append(f"{target}: {exc}")
            if timed:
                out["latencies_us"].append((now() - t0) * 1e6)
        out["reps"].append(
            {
                "wall": now() - burst0,
                "sends": runtime.hooks.invocations,
                "allowed": pep.allowed_deliveries,
                "blocked": pep.blocked_deliveries,
                "failed": failed,
                "activations": len(activations),
            }
        )
    out["summary"] = pdp.audit.summary()
    return out


def main() -> None:
    spec = common.read_json(sys.argv[1])
    common.import_program()
    excluded = 0.0
    t = common.now()
    with open(spec["inputs"], "rb") as handle:
        data = pickle.load(handle)  # written by run.py
    schedule = data["schedule"][spec["child"]]
    excluded += common.now() - t
    recorder = None
    if spec.get("trace_dir"):
        import tracing

        t = common.now()
        recorder = tracing.install(spec["trace_dir"])
        excluded += common.now() - t
    with recorder.root() if recorder else contextlib.nullcontext():
        run = session(data["apks"], data["policies"], schedule, "compiled", True)
    if recorder is not None:
        recorder.flush()
    rss = common.peak_rss_kib()
    replay = session(data["apks"], data["policies"], schedule, "linear", False)
    run.update(
        started_at=STARTED,
        excluded_setup=excluded,
        peak_rss_kib=rss,
        replay_summary=replay["summary"],
        replay_reps=replay["reps"],
    )
    common.write_json(spec["out"], run)


if __name__ == "__main__":
    main()
