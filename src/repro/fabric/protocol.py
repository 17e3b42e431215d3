"""Wire format of the fabric: cells, records and configs as plain JSON.

Everything that crosses the coordinator/worker boundary is a JSON object
built from primitives — no pickling, so a fleet can mix Python versions and
a captured request log is human-readable.  The payloads are lossless:
``cell_from_payload(cell_to_payload(cell))`` reproduces the
:class:`~repro.experiments.runner.SweepCell` exactly (tuples, nested
``SearchConfig`` and all), and records round-trip bit-identically —
the same contract the store's shard backends sign.

Custom policy *factories* cannot cross the wire (there is nothing portable
to serialise a closure into), so fabric sweeps run the default line-up:
``cell_to_payload`` rejects cells carrying explicit factories loudly, and
the worker reconstructs the line-up from the config via
:func:`repro.experiments.runner.default_policies` — which is pure, so every
worker derives the identical line-up.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Sequence

from repro.core.time_counter import SearchConfig
from repro.experiments.config import SweepConfig
from repro.experiments.runner import RunRecord, SweepCell

__all__ = [
    "PROTOCOL_VERSION",
    "FabricError",
    "cell_to_payload",
    "cell_from_payload",
    "config_to_payload",
    "config_from_payload",
    "records_to_payload",
    "records_from_payload",
]

#: Version of the claim/heartbeat/result/status message schema.  Served in
#: every status response and stamped into every lease grant; a worker
#: refuses a grant of another version (:class:`FabricError` naming both)
#: instead of mis-parsing its cell.
PROTOCOL_VERSION = 1


class FabricError(RuntimeError):
    """A fabric-level contract violation (unknown action, policies on the wire, ...)."""


def config_to_payload(config: SweepConfig) -> dict:
    """``SweepConfig`` as a JSON-safe dict (nested dataclasses included)."""
    return dataclasses.asdict(config)


def config_from_payload(payload: Mapping) -> SweepConfig:
    """Inverse of :func:`config_to_payload` (tuples and ``SearchConfig`` restored)."""
    fields = dict(payload)
    fields["search"] = SearchConfig(**fields["search"])
    fields["node_counts"] = tuple(fields["node_counts"])
    return SweepConfig(**fields)


def cell_to_payload(cell: SweepCell) -> dict:
    """One :class:`SweepCell` as the ``cell`` object of a lease grant."""
    if cell.policies is not None:
        raise FabricError(
            "custom policy factories cannot cross the fabric wire; fabric "
            "sweeps run the default line-up (policies=None)"
        )
    return {
        "config": config_to_payload(cell.config),
        "system": cell.system,
        "rate": cell.rate,
        "num_nodes": cell.num_nodes,
        "repetition": cell.repetition,
        "engine": cell.engine,
    }


def cell_from_payload(payload: Mapping) -> SweepCell:
    """Rebuild the :class:`SweepCell` a lease grant describes."""
    return SweepCell(
        config=config_from_payload(payload["config"]),
        system=payload["system"],
        rate=payload["rate"],
        num_nodes=payload["num_nodes"],
        repetition=payload["repetition"],
        engine=payload["engine"],
        policies=None,
    )


def records_to_payload(records: Sequence[RunRecord]) -> list[dict]:
    """A record batch as JSON objects (one dict per record, field-for-field)."""
    return [dataclasses.asdict(record) for record in records]


def records_from_payload(items: Sequence[Mapping]) -> list[RunRecord]:
    """Inverse of :func:`records_to_payload`; raises on unknown/missing fields."""
    return [RunRecord(**dict(item)) for item in items]
