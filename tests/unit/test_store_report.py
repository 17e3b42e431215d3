"""Report layer over the store: stats from the index alone."""

from __future__ import annotations

import pytest

from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.report import store_summary_text
from repro.experiments.runner import run_sweep
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def config() -> SweepConfig:
    return SweepConfig(
        node_counts=(16, 24),
        area_side=10.0,
        radius=4.0,
        repetitions=2,
        source_min_ecc=1,
        source_max_ecc=None,
        search=SearchConfig(mode="beam", beam_width=2),
        max_color_classes=4,
    )


@pytest.fixture(scope="module")
def populated(tmp_path_factory, config):
    """A store holding one sync sweep of the full default line-up."""
    store = ExperimentStore(tmp_path_factory.mktemp("report") / "store")
    run_sweep(config, system="sync", store=store)
    yield store
    store.close()


def test_store_summary_text_renders_stats(populated):
    text = store_summary_text(populated)
    assert "cached cells" in text
    assert "sync: 4" in text
    assert str(populated.root) in text
