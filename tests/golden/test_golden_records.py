"""Golden records: pinned digests of the paper line-up's sweep records.

The parity suites compare engines that run the same policy code, so a
change inside a scheduler (the time counter's search, the E-model, the
baselines) or the deployment generator passes them unnoticed.  These
digests pin the records themselves: any change to what a sweep returns —
a latency, an eccentricity, an energy figure — fails here.  Beside the
paper line-up on reliable links, slices pin the exact solver tier on the
``RATIO_SWEEP`` grid, a lossy sweep and a multi-source sweep.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import default_policies, run_sweep
from repro.utils.serialization import canonical_json

GOLDEN = json.loads((Path(__file__).parent / "records.json").read_text(encoding="utf-8"))


def _slice_id(spec: dict) -> str:
    nodes = ",".join(str(n) for n in spec["node_counts"])
    slice_id = f"{spec['system']}-r{spec['rate']}-n{nodes}"
    for field in ("scenario", "duty_model"):
        if spec.get(field, "uniform") != "uniform":
            slice_id += f"-{spec[field]}"
    for field, tag in (
        ("repetitions", "reps"),
        ("beam_width", "beam"),
        ("max_color_classes", "colors"),
        ("loss_probability", "loss"),
        ("n_sources", "sources"),
    ):
        if field in spec:
            slice_id += f"-{tag}{spec[field]}"
    for field in ("source_placement", "solver"):
        if field in spec:
            slice_id += f"-{spec[field]}"
    return slice_id


def records_digest(records) -> str:
    """SHA-256 over the canonical JSON of the records, in sweep order."""
    payload = canonical_json([dataclasses.asdict(record) for record in records])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Optional slice fields passed to :class:`SweepConfig` verbatim (a slice
#: that leaves one out gets the ``SweepConfig`` default).
_PASSTHROUGH = (
    "scenario",
    "duty_model",
    "max_color_classes",
    "area_side",
    "source_min_ecc",
    "source_max_ecc",
    "solver",
    "link_model",
    "loss_probability",
    "n_sources",
    "source_placement",
)


@pytest.mark.parametrize("spec", GOLDEN["slices"], ids=_slice_id)
def test_sweep_records_match_pinned_digest(spec):
    defaults = SweepConfig()
    repetitions = spec.get("repetitions", GOLDEN["repetitions"])
    config = SweepConfig(
        node_counts=tuple(spec["node_counts"]),
        repetitions=repetitions,
        seed=GOLDEN["seed"],
        search=SearchConfig(
            mode="beam", beam_width=spec.get("beam_width", defaults.search.beam_width)
        ),
        **{field: spec[field] for field in _PASSTHROUGH if field in spec},
    )
    result = run_sweep(config, system=spec["system"], rate=spec["rate"], workers=1)
    line_up = default_policies(config, spec["system"])
    assert len(result.records) == len(line_up) * len(spec["node_counts"]) * repetitions
    assert records_digest(result.records) == spec["digest"]
