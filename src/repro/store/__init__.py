"""Persistent experiment store: a content-addressed cell cache.

The determinism contract of :mod:`repro.experiments.runner` makes every
sweep cell's records a pure function of its configuration — which makes
cells perfectly cacheable by content hash.  This package persists them:

* :mod:`repro.store.cellkey` — :class:`CellKey`, the cache-key contract
  (what is hashed, what is deliberately excluded, and the schema version
  that fences off stale caches);
* :mod:`repro.store.backends` — pluggable shard formats
  (:data:`STORE_BACKENDS`, mirroring ``ENGINE_BACKENDS``);
* :mod:`repro.store.store` — :class:`ExperimentStore`, the sqlite-indexed,
  atomically-sharded cell cache with ``stats`` / ``gc`` / ``export``.

``run_sweep(..., store=..., resume=True)`` consults the store before
dispatching cells, so interrupted sweeps resume and grid extensions only
pay for the delta; see ``docs/store.md`` for the full contract.
"""

from repro.store.backends import (
    STORE_BACKENDS,
    CsvBackend,
    JsonlBackend,
    StoreBackend,
    get_store_backend,
    store_backend_names,
)
from repro.store.cellkey import STORE_SCHEMA_VERSION, CellKey, cell_key_for
from repro.store.store import ExperimentStore, GcStats, StoreStats, open_store

__all__ = [
    "CellKey",
    "CsvBackend",
    "ExperimentStore",
    "GcStats",
    "JsonlBackend",
    "STORE_BACKENDS",
    "STORE_SCHEMA_VERSION",
    "StoreBackend",
    "StoreStats",
    "cell_key_for",
    "get_store_backend",
    "open_store",
    "store_backend_names",
]
