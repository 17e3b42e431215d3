"""A fleet is one more cell source of the runner's single dispatch loop.

``LocalFleet.execute`` yields each cell's records as soon as that cell and
every earlier one have committed, and ``run_sweep`` writes them back and
reports them exactly as it does in-process or on the pool.  So progress
events stream while the fleet is still working, and a quarantined cell
fails the sweep only after every earlier cell reached the store — with
the fleet's threads and server torn down either way.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.experiments.config import QUICK_SWEEP
from repro.experiments.runner import run_sweep
from repro.fabric import FabricError, FabricWorker, LocalFleet
from repro.obs.bus import EVENT_BUS
from repro.obs.sinks import CallbackSink
from repro.store import ExperimentStore

_CONFIG = replace(QUICK_SWEEP, node_counts=(50,), repetitions=4)
_CELLS = 4
_WAIT_S = 5.0


@pytest.fixture(scope="module")
def baseline():
    return run_sweep(_CONFIG, system="sync", workers=1)


def _finished_sink(seen: list[int], first: threading.Event) -> CallbackSink:
    """Record ``cell_finished`` indices; set ``first`` on cell 0's."""

    def on_event(event) -> None:
        if event.kind == "cell_finished":
            seen.append(event.index)
            if event.index == 0:
                first.set()

    return CallbackSink(on_event)


def _lingering() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("fabric-http", "fleet-worker"))
    ]


def test_fleet_progress_streams_before_the_grid_is_done(baseline):
    """The worker holds the grid's last cell until the runner reports cell
    0 finished — which only happens if the fleet streams its commits."""
    seen: list[int] = []
    first = threading.Event()
    waited: list[bool] = []

    class _WaitForProgress(FabricWorker):
        def simulate(self, cell, grant):
            if grant["index"] == _CELLS - 1:
                waited.append(first.wait(timeout=_WAIT_S))
            return super().simulate(cell, grant)

    fleet = LocalFleet(
        workers=1,
        worker_factory=lambda index, transport: _WaitForProgress(
            transport, name=f"fleet-worker-{index}", poll_interval=0.01
        ),
    )
    with EVENT_BUS.attached(_finished_sink(seen, first)):
        result = run_sweep(_CONFIG, system="sync", fabric=fleet)
    assert waited == [True], "cell 0 was not reported while the fleet ran"
    assert seen == list(range(_CELLS))
    assert result.records == baseline.records


def test_quarantined_cell_raises_after_earlier_cells_are_stored(tmp_path, baseline):
    """One worker posts a bad digest for cell 2; with one attempt allowed the
    cell is quarantined.  ``run_sweep`` raises naming it, having written
    back (and reported) cells 0 and 1 through its own loop.  No later cell
    can reach the runner, so the fleet stops leasing: cell 3 is never
    simulated."""
    poisoned = 2
    simulated: list[int] = []

    class _PoisonWorker(FabricWorker):
        def simulate(self, cell, grant):
            simulated.append(grant["index"])
            return super().simulate(cell, grant)

        def post(self, payload):
            if payload["index"] == poisoned:
                payload = {**payload, "digest": "0" * 64}
            super().post(payload)

    fleet = LocalFleet(
        workers=1,
        transport="http",
        max_attempts=1,
        worker_factory=lambda index, transport: _PoisonWorker(
            transport, name=f"fleet-worker-{index}", poll_interval=0.01
        ),
    )
    seen: list[int] = []
    with ExperimentStore(tmp_path / "store") as store:
        with EVENT_BUS.attached(_finished_sink(seen, threading.Event())):
            with pytest.raises(FabricError, match=f"cell {poisoned}: rejected"):
                run_sweep(_CONFIG, system="sync", store=store, fabric=fleet)
        assert _lingering() == []
        assert seen == list(range(poisoned))
        assert simulated == list(range(poisoned + 1))
        assert fleet.last_status["counts"]["quarantined"] == 1

        # The runner alone wrote back, so exactly the cells before the
        # poisoned one are cached; a plain rerun simulates the rest.
        rerun = run_sweep(_CONFIG, system="sync", store=store)
        assert rerun.cache_hits == poisoned
        assert rerun.cache_misses == _CELLS - poisoned
        assert rerun.records == baseline.records


@pytest.mark.parametrize("poisoned", [0, 1, _CELLS - 1])
def test_fleet_stops_leasing_once_the_next_cell_is_quarantined(poisoned):
    """Wherever the quarantined cell sits, the one worker simulates it and
    every earlier cell, and no cell after it."""
    simulated: list[int] = []

    class _PoisonWorker(FabricWorker):
        def simulate(self, cell, grant):
            simulated.append(grant["index"])
            return super().simulate(cell, grant)

        def post(self, payload):
            if payload["index"] == poisoned:
                payload = {**payload, "digest": "0" * 64}
            super().post(payload)

    fleet = LocalFleet(
        workers=1,
        max_attempts=1,
        worker_factory=lambda index, transport: _PoisonWorker(
            transport, name=f"fleet-worker-{index}", poll_interval=0.01
        ),
    )
    with pytest.raises(FabricError, match=f"cell {poisoned}: rejected"):
        run_sweep(_CONFIG, system="sync", fabric=fleet)
    assert _lingering() == []
    assert simulated == list(range(poisoned + 1))
    assert fleet.last_status["counts"]["quarantined"] == 1
