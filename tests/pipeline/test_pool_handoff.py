"""How a pool round hands its items to the workers.

Under ``fork`` the workers inherit the round's function and items through
the pool initializer and each task is only an index, so no item is ever
pickled.  Under ``spawn`` (and ``forkserver``) every task still carries
its own pickled item.  That spawned rounds return what an in-process
(``jobs=1``) run returns is checked by the spawn cases of
``test_observability.py`` and ``test_faults.py``.

Each stage also freezes the heap it starts with, and forked workers
inherit the freeze.
"""

import gc
import multiprocessing
import os

import pytest

from repro.benchsuite.running_example import build_app1, build_app2
from repro.obs import MetricsRegistry
from repro.pipeline import AnalysisPipeline, FaultPolicy, executor


class Unpicklable:
    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("this item must not be pickled")


def square(item):
    return item.value * item.value


def _pipeline(jobs, start_method=None):
    return AnalysisPipeline(
        jobs=jobs,
        start_method=start_method,
        faults=FaultPolicy(max_retries=0, backoff_seconds=0.0),
    )


def _map(pipeline, items):
    return pipeline._map(
        square,
        items,
        stage="extract",
        labels=[str(i.value) for i in items],
        metrics=MetricsRegistry(),
    )


def _require(start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {start_method!r} unavailable")


def test_forked_round_does_not_pickle_its_items():
    _require("fork")
    items = [Unpicklable(v) for v in range(6)]
    outcomes = _map(_pipeline(2, "fork"), items)
    assert [o.failure for o in outcomes] == [None] * len(items)
    assert [o.payload for o in outcomes] == [v * v for v in range(6)]


def test_unpicklable_items_fail_cleanly_under_spawn():
    """Without inheritance an item that cannot be pickled is a task
    error, recorded as a failure -- not a hang or a crashed run."""
    _require("spawn")
    items = [Unpicklable(1), Unpicklable(2)]
    outcomes = _map(_pipeline(2, "spawn"), items)
    assert all(o.failure is not None for o in outcomes)
    assert all(o.failure.kind == "error" for o in outcomes)
    assert "must not be pickled" in outcomes[0].failure.error


@pytest.mark.parametrize("jobs, start_method", [(1, None), (2, "fork")])
def test_tasks_run_on_a_frozen_heap(
    monkeypatch, tmp_path, jobs, start_method
):
    """Both stages freeze the heap they start with (``gc.freeze``); forked
    workers inherit that state, and the run leaves no freeze behind."""
    if start_method is not None:
        _require(start_method)
    seen = tmp_path / "freeze-counts"

    def recording(worker):
        def run(task):
            with open(seen, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()} {gc.get_freeze_count()}\n")
            return worker(task)

        return run

    for name in ("_extract_worker", "_shared_synthesis_worker"):
        monkeypatch.setattr(
            executor, name, recording(getattr(executor, name))
        )
    # Python 3.12 starts with a few hundred objects of its own frozen.
    before = gc.get_freeze_count()
    AnalysisPipeline(
        jobs=jobs, start_method=start_method, scenarios_per_signature=2
    ).run([[build_app1()], [build_app2()]])
    rows = [line.split() for line in seen.read_text().splitlines()]
    assert len(rows) == 4  # two apps extracted, two bundles synthesized
    assert all(int(count) > before for _pid, count in rows)
    assert all((int(pid) != os.getpid()) == (jobs > 1) for pid, _ in rows)
    assert gc.get_freeze_count() == 0
