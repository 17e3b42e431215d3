"""The persistent experiment store: sqlite index + content-addressed shards.

Layout (everything under one root directory)::

    <root>/
        index.sqlite            # one row per cached cell (the queryable index)
        shards/<dd>/<digest>.jsonl   # one shard per cell, content-addressed

The index row carries the cell's coordinates and workload axes as real
columns (queryable with SQL), the full canonical-JSON key parameters, and
the shard's relative path + backend; the shard holds the cell's
:class:`~repro.experiments.runner.RunRecord` batch in a
:class:`~repro.store.backends.StoreBackend` format.  Writes are atomic and
crash-safe: the shard is written with temp-file + ``os.replace`` *before*
its index row is committed, so a reader either sees a complete cell or no
cell — never a torn one.  Within one process the store is thread-safe: a
single sqlite connection guarded by an :class:`threading.RLock` serialises
index access, which is what lets the fabric coordinator commit results from
its server's executor threads while ``status`` reads run concurrently.
Across processes, sqlite's file locking (with a generous busy timeout)
arbitrates — concurrent committers of the *same* digest are idempotent by
construction, since the digest addresses the content.

``get``/``put`` are the cache interface the sweep runner uses;
:meth:`ExperimentStore.stats`, :meth:`ExperimentStore.gc` and
:meth:`ExperimentStore.export` are the operator surface behind
``repro store stats|gc|export``.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.obs.bus import EVENT_BUS
from repro.store.backends import StoreBackend, get_store_backend
from repro.store.cellkey import STORE_SCHEMA_VERSION, CellKey
from repro.utils.serialization import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.experiments.runner import RunRecord

__all__ = ["ExperimentStore", "StoreStats", "GcStats", "open_store"]

_INDEX_NAME = "index.sqlite"
_SHARDS_DIR = "shards"

#: How old an in-flight temp file or unindexed shard must be before ``gc``
#: treats it as a crash leftover rather than a concurrent sweep's live write.
_TEMP_FILE_MAX_AGE_S = 3600.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    digest TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    system TEXT NOT NULL,
    rate INTEGER NOT NULL,
    num_nodes INTEGER NOT NULL,
    repetition INTEGER NOT NULL,
    scenario TEXT NOT NULL,
    duty_model TEXT NOT NULL,
    link_model TEXT NOT NULL,
    loss_probability REAL NOT NULL,
    n_sources INTEGER NOT NULL,
    source_placement TEXT NOT NULL,
    seed INTEGER NOT NULL,
    policies TEXT NOT NULL,
    params TEXT NOT NULL,
    backend TEXT NOT NULL,
    shard TEXT NOT NULL,
    num_records INTEGER NOT NULL,
    created_at TEXT NOT NULL
)
"""

#: The canonical cell order of every multi-cell read (``iter_cells``/``export``):
#: workload axes first, then the grid coordinates, digest as tiebreaker.
_CANONICAL_ORDER = (
    "ORDER BY system, rate, scenario, duty_model, link_model, "
    "loss_probability, n_sources, source_placement, num_nodes, repetition, "
    "digest"
)

@dataclass(frozen=True)
class StoreStats:
    """Aggregate shape of a store (the ``store stats`` target)."""

    cells: int
    records: int
    shard_bytes: int
    systems: dict[str, int] = field(default_factory=dict)
    scenarios: dict[str, int] = field(default_factory=dict)
    link_models: dict[str, int] = field(default_factory=dict)
    schema_versions: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`ExperimentStore.gc` pass removed."""

    dangling_rows: int
    orphan_shards: int
    stale_schema_cells: int
    temp_files: int
    #: Dot-prefixed temp files and unindexed shards *younger* than the reap
    #: age: possibly a concurrent writer's live commit.  Reported, never
    #: deleted, and excluded from :attr:`total` — gc only counts what it
    #: removed.
    in_flight_temp_files: int = 0

    @property
    def total(self) -> int:
        """Total number of removed items."""
        return (
            self.dangling_rows
            + self.orphan_shards
            + self.stale_schema_cells
            + self.temp_files
        )


class ExperimentStore:
    """A persistent, content-addressed cache of sweep cells.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    backend:
        Shard format for *new* cells, by registry name or instance
        (``"jsonl"`` by default).  Reads always honour the backend recorded
        in each cell's index row, so stores with mixed shard formats stay
        readable.
    """

    def __init__(self, root: Path | str, *, backend: str | StoreBackend = "jsonl") -> None:
        self.root = Path(root)
        self.backend = (
            get_store_backend(backend) if isinstance(backend, str) else backend
        )
        self.root.mkdir(parents=True, exist_ok=True)
        # One connection shared across threads, serialised by ``_lock``:
        # the fabric coordinator commits from its HTTP server's executor
        # threads while status/query reads come from the serve loop.
        self._connection = sqlite3.connect(
            self.root / _INDEX_NAME, timeout=30.0, check_same_thread=False
        )
        self._lock = threading.RLock()
        with self._lock:
            self._connection.execute(_SCHEMA)
            self._connection.commit()

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the index connection (the store can be re-opened any time)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExperimentStore({str(self.root)!r}, backend={self.backend.name!r})"

    # -- the cache interface ----------------------------------------------

    def contains(self, key: CellKey) -> bool:
        """Whether a complete cell for ``key`` is cached.

        Index lookup + shard existence only — no shard read, so probing
        membership of a large cell costs no record deserialisation.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT shard FROM cells WHERE digest = ?", (key.digest,)
            ).fetchone()
        return row is not None and (self.root / row[0]).is_file()

    def get(self, key: CellKey) -> "list[RunRecord] | None":
        """The cached records of ``key``'s cell, or ``None`` on a miss.

        A row whose shard file has vanished (manual deletion, partial copy)
        is treated as a miss and its index entry dropped, so the cell is
        simply re-simulated instead of failing the sweep.
        """
        with self._lock:
            row = self._connection.execute(
                "SELECT shard, backend FROM cells WHERE digest = ?", (key.digest,)
            ).fetchone()
        if row is None:
            if EVENT_BUS.active:
                from repro.obs.events import StoreMiss

                EVENT_BUS.emit(StoreMiss(key.digest))
            return None
        shard_path = self.root / row[0]
        try:
            text = shard_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            with self._lock:
                self._connection.execute(
                    "DELETE FROM cells WHERE digest = ?", (key.digest,)
                )
                self._connection.commit()
            if EVENT_BUS.active:
                from repro.obs.events import StoreMiss

                EVENT_BUS.emit(StoreMiss(key.digest))
            return None
        records = get_store_backend(row[1]).loads(text)
        if EVENT_BUS.active:
            from repro.obs.events import StoreHit

            EVENT_BUS.emit(StoreHit(key.digest, len(records)))
        return records

    def put(self, key: CellKey, records: "Sequence[RunRecord]") -> str:
        """Persist one cell's record batch; returns the content digest.

        Shard first (atomic rename), index row second (committed
        transaction): a crash between the two leaves an orphan shard that
        the next ``put`` of the same content reuses and ``gc`` can clean —
        never a row pointing at missing or torn data.  Re-putting a digest
        replaces the cell (same content by construction).
        """
        digest = key.digest
        shard_rel = f"{_SHARDS_DIR}/{digest[:2]}/{digest}{self.backend.extension}"
        atomic_write_text(self.root / shard_rel, self.backend.dumps(records))
        params = json.loads(key.params)
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO cells VALUES "
                "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    digest,
                    key.schema_version,
                    key.system,
                    key.rate,
                    key.num_nodes,
                    key.repetition,
                    params["scenario"],
                    params["duty_model"],
                    params["link_model"],
                    params["loss_probability"],
                    params["n_sources"],
                    params["source_placement"],
                    params["seed"],
                    json.dumps(list(key.policies)),
                    key.params,
                    self.backend.name,
                    shard_rel,
                    len(records),
                    datetime.now(timezone.utc).isoformat(timespec="seconds"),
                ),
            )
            self._connection.commit()
        if EVENT_BUS.active:
            from repro.obs.events import StorePut

            EVENT_BUS.emit(StorePut(digest, len(records)))
        return digest

    # -- the operator surface ---------------------------------------------

    def stats(self) -> StoreStats:
        """Aggregate counts over the index plus shard bytes on disk."""
        with self._lock:
            cells, records = self._connection.execute(
                "SELECT COUNT(*), COALESCE(SUM(num_records), 0) FROM cells"
            ).fetchone()

        def _grouped(column: str) -> dict:
            with self._lock:
                return dict(
                    self._connection.execute(
                        f"SELECT {column}, COUNT(*) FROM cells "
                        f"GROUP BY {column} ORDER BY {column}"
                    ).fetchall()
                )

        shard_bytes = 0
        for path in (self.root / _SHARDS_DIR).glob("*/*"):
            if path.name.startswith("."):
                continue  # another writer's in-flight atomic write
            try:
                if path.is_file():
                    shard_bytes += path.stat().st_size
            except FileNotFoundError:
                continue  # removed by a concurrent gc since the listing
        return StoreStats(
            cells=cells,
            records=records,
            shard_bytes=shard_bytes,
            systems=_grouped("system"),
            scenarios=_grouped("scenario"),
            link_models=_grouped("link_model"),
            schema_versions=_grouped("schema_version"),
        )

    def gc(self) -> GcStats:
        """Remove everything unreachable: dangling rows, orphan shards,
        cells of old schema versions (their digests can never be requested
        again — the digest embeds the version), and leftover temp files.

        Dot-prefixed temp files and unreferenced shards younger than the
        reap age may be a concurrent writer's live commit (a sweep or a
        fabric coordinator between writing a shard and indexing it): they
        are *reported* in :attr:`GcStats.in_flight_temp_files` but never
        deleted, so gc is safe to run alongside a live fleet.
        """
        with self._lock:
            stale = self._connection.execute(
                "SELECT digest, shard FROM cells WHERE schema_version != ?",
                (STORE_SCHEMA_VERSION,),
            ).fetchall()
            for digest, shard in stale:
                (self.root / shard).unlink(missing_ok=True)
                self._connection.execute(
                    "DELETE FROM cells WHERE digest = ?", (digest,)
                )

            dangling = [
                (digest, shard)
                for digest, shard in self._connection.execute(
                    "SELECT digest, shard FROM cells"
                ).fetchall()
                if not (self.root / shard).is_file()
            ]
            for digest, _ in dangling:
                self._connection.execute(
                    "DELETE FROM cells WHERE digest = ?", (digest,)
                )
            self._connection.commit()

            referenced = {
                shard
                for (shard,) in self._connection.execute("SELECT shard FROM cells")
            }
        orphans = temps = in_flight = 0
        now = time.time()
        shards_root = self.root / _SHARDS_DIR
        for path in sorted(shards_root.glob("*/*")) if shards_root.is_dir() else []:
            try:
                temp = path.name.startswith(".")
                if not path.is_file() or (
                    not temp and str(path.relative_to(self.root)) in referenced
                ):
                    continue
                # An unreferenced file may be a live write: a dot-prefixed
                # temp file, or a shard whose index row ``put`` has not yet
                # committed (possibly from another process).  Only reap it
                # once it is old enough to be a crash leftover, so gc is
                # safe to run alongside a live sweep.
                if now - path.stat().st_mtime <= _TEMP_FILE_MAX_AGE_S:
                    in_flight += 1
                    continue
                path.unlink()
                if temp:
                    temps += 1
                else:
                    orphans += 1
            except FileNotFoundError:
                # Renamed into place or removed by a concurrent writer or
                # gc since the listing: already gone.
                continue
        return GcStats(
            dangling_rows=len(dangling),
            orphan_shards=orphans,
            stale_schema_cells=len(stale),
            temp_files=temps,
            in_flight_temp_files=in_flight,
        )

    def iter_cells(self) -> Iterator[tuple[dict, "list[RunRecord]"]]:
        """Every cached cell in canonical order: ``(index row, records)``.

        The index row comes back as a plain column dict; cells whose shard
        has vanished are skipped (``gc`` reaps their rows).
        """
        with self._lock:
            cursor = self._connection.execute(f"SELECT * FROM cells {_CANONICAL_ORDER}")
            columns = [description[0] for description in cursor.description]
            rows = cursor.fetchall()
        for values in rows:
            row = dict(zip(columns, values))
            try:
                text = (self.root / row["shard"]).read_text(encoding="utf-8")
            except FileNotFoundError:
                continue
            yield row, get_store_backend(row["backend"]).loads(text)

    def export(self, format: str = "jsonl") -> str:
        """Every cached record, canonically ordered, in one ``format`` blob.

        The output is ``loads``-compatible with the named backend, so an
        export re-imports losslessly (the ``store export`` round trip).
        """
        backend = get_store_backend(format)
        records: list = []
        for _, cell_records in self.iter_cells():
            records.extend(cell_records)
        return backend.dumps(records)


def open_store(
    path: Path | str | None, *, backend: str = "jsonl"
) -> ExperimentStore | None:
    """Open ``path`` as an :class:`ExperimentStore` (``None`` passes through).

    The convenience used by the CLI and the figure generators so "no
    ``--store``" and "store at PATH" share one code path.
    """
    if path is None:
        return None
    return ExperimentStore(path, backend=backend)
