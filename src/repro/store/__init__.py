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

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.store.backends": (
            "STORE_BACKENDS",
            "CsvBackend",
            "JsonlBackend",
            "StoreBackend",
            "get_store_backend",
            "store_backend_names",
        ),
        "repro.store.cellkey": ("STORE_SCHEMA_VERSION", "CellKey", "cell_key_for"),
        "repro.store.store": ("ExperimentStore", "GcStats", "StoreStats", "open_store"),
    },
)
