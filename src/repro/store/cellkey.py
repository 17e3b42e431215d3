"""Content-addressed cell keys: the cache-key contract of the store.

A sweep grid is embarrassingly parallel across ``(node count, repetition)``
cells, and the determinism contract (see :mod:`repro.experiments.runner`)
makes every cell's records a pure function of its configuration — never of
the engine backend, the worker count, or the rest of the grid.  A
:class:`CellKey` captures exactly that function's input:

* the cell coordinates (``system``, ``rate``, ``num_nodes``,
  ``repetition``),
* the policy line-up *names* (the behaviour of the default line-up is
  pinned by the config fields below — ``search``, ``max_color_classes`` —
  so names identify it; custom factories must use distinct names),
* every record-affecting config field
  (:meth:`repro.experiments.config.SweepConfig.cell_key_fields` — scenario,
  duty model, link model, loss probability, sources, solver tier,
  geometry, base seed, search configuration), and
* :data:`STORE_SCHEMA_VERSION`, bumped whenever the record schema or the
  simulation semantics change incompatibly, so stale caches can never be
  returned as fresh results.

The digest is the SHA-256 of the canonical-JSON rendering of those parts —
stable across processes, platforms and Python versions — and doubles as the
shard filename, making the store content-addressed: identical configs in
different processes converge on the same digest, different configs (even by
one loss probability) never collide.

Excluded on purpose: ``engine``, ``workers`` (bit-identical records by
contract — a cell cached from a vectorized 8-worker run satisfies a
reference serial run), and the grid shape ``node_counts`` / ``repetitions``
(the cell's own coordinates replace them, so growing a grid only pays for
the new cells).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.utils.serialization import canonical_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.config import SweepConfig

__all__ = ["STORE_SCHEMA_VERSION", "CellKey", "cell_key_for"]

#: Version of the store's record schema and cache-key contract.  Part of
#: every digest: bumping it invalidates every previously cached cell.
#: History: 1 — initial store; 2 — ``SweepConfig.solver`` joined the
#: record-affecting fields (the solver tier is workload configuration, so
#: pre-solver caches must not satisfy solver-aware lookups); 3 — the unread
#: ``SweepConfig.duty_rates`` left the key fields, so configs with identical
#: records share one digest.
STORE_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class CellKey:
    """The full content identity of one sweep cell.

    ``params`` is the canonical-JSON rendering of the record-affecting
    config fields (kept as a string so the key is hashable and its digest
    reproducible); ``policies`` the policy names of the line-up in
    definition order.
    """

    system: str
    rate: int
    num_nodes: int
    repetition: int
    policies: tuple[str, ...]
    params: str
    schema_version: int = STORE_SCHEMA_VERSION

    @property
    def digest(self) -> str:
        """SHA-256 content digest (64 hex chars); the shard address."""
        payload = canonical_json(
            {
                "schema_version": self.schema_version,
                "system": self.system,
                "rate": self.rate,
                "num_nodes": self.num_nodes,
                "repetition": self.repetition,
                "policies": list(self.policies),
                "params": self.params,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def cell_key_for(
    config: "SweepConfig",
    *,
    system: str,
    rate: int,
    num_nodes: int,
    repetition: int,
    policies: Iterable[str],
    schema_version: int = STORE_SCHEMA_VERSION,
) -> CellKey:
    """Build the :class:`CellKey` of one cell of ``config``'s grid.

    ``rate`` must already be the cell's effective rate (``1`` for the
    round-based system), matching the ``rate`` column of its records.
    """
    return CellKey(
        system=system,
        rate=rate,
        num_nodes=num_nodes,
        repetition=repetition,
        policies=tuple(policies),
        params=canonical_json(config.cell_key_fields()),
        schema_version=schema_version,
    )
