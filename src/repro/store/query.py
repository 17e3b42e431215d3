"""The query layer: cached cells back into figure-ready ``SweepResult``\\ s.

``store.query(...)`` answers "give me the records matching these workload
axes" straight from the index — no simulation — in a shape the figure and
report code already consumes.  Cell-level filters (``system``,
``scenario``, ``num_nodes``, ``loss_probability``, ``n_sources``, ...) are
pushed down to SQL over the index columns; the record-level ``policy``
filter is applied after the shards load (policies live inside cells).

Records come back in the store's canonical cell order, which coincides
with ``run_sweep``'s serial order for a single sweep's cells (ascending
node count, then repetition) — so a query over exactly one sweep's grid
reproduces that sweep's record order bit-for-bit.  The attached
``SweepConfig`` is reconstructed from the matched cells' stored key
parameters; since those parameters are part of every digest, the
reconstruction is faithful for any single-config query, and a query
spanning several configs (e.g. two scenarios at once) keeps the records
but refuses only if the *system models* disagree, where a single
``SweepResult`` would be meaningless.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.store.store import ExperimentStore

__all__ = ["query_records"]


def _config_from_params(
    params: dict, node_counts: tuple[int, ...], repetitions: int
):
    """Rebuild a ``SweepConfig`` from one cell's stored key parameters.

    The key parameters are exactly ``SweepConfig.cell_key_fields()``; the
    excluded grid shape is resupplied from the matched cells and the
    excluded ``engine``/``workers`` fall back to their (record-irrelevant)
    defaults.  Schema-2 cells still carry the retired ``duty_rates`` field,
    which shaped no record and is dropped.
    """
    from repro.core.time_counter import SearchConfig
    from repro.experiments.config import SweepConfig

    fields = dict(params)
    fields["search"] = SearchConfig(**fields["search"])
    fields.pop("duty_rates", None)
    return SweepConfig(
        node_counts=node_counts, repetitions=repetitions, **fields
    )


def query_records(
    store: "ExperimentStore", *, policy: str | None = None, **filters: object
):
    """Run one query against ``store`` and assemble a ``SweepResult``.

    ``filters`` are exact-match constraints on the index columns
    (``system=``, ``rate=``, ``scenario=``, ``duty_model=``,
    ``link_model=``, ``loss_probability=``, ``n_sources=``,
    ``source_placement=``, ``num_nodes=``, ``repetition=``, ``seed=``,
    ``schema_version=``); ``policy`` restricts the records inside each
    matched cell.  Raises :class:`LookupError` when nothing matches (a
    typo'd filter should fail loudly, not plot an empty figure) and
    :class:`ValueError` when the matches span both system models.
    """
    from repro.experiments.runner import SweepResult

    cells = store._matching_cells(dict(filters))
    if not cells:
        rendered = ", ".join(f"{k}={v!r}" for k, v in filters.items()) or "<all>"
        raise LookupError(f"no cached cells match the query ({rendered})")

    systems = sorted({row["system"] for row, _ in cells})
    rates = sorted({row["rate"] for row, _ in cells})
    if len(systems) > 1:
        raise ValueError(
            f"query matches both system models {systems}; add a system= filter"
        )

    records = []
    for _, cell_records in cells:
        records.extend(
            r for r in cell_records if policy is None or r.policy == policy
        )
    if policy is not None and not records:
        known = sorted({r.policy for _, batch in cells for r in batch})
        raise LookupError(
            f"no records of policy {policy!r} in the matched cells; "
            f"cached policies: {known}"
        )

    node_counts = tuple(sorted({row["num_nodes"] for row, _ in cells}))
    repetitions = 1 + max(row["repetition"] for row, _ in cells)
    config = _config_from_params(
        json.loads(cells[0][0]["params"]), node_counts, repetitions
    )
    return SweepResult(
        system=systems[0],
        rate=rates[0] if len(rates) == 1 else max(rates),
        config=config,
        records=records,
    )
