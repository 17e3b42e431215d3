"""Deterministic random-number-generation helpers.

Every stochastic component of the library (deployments, wake-up schedules,
experiment sweeps) accepts an integer seed and derives its own independent
:class:`numpy.random.Generator` from it, so that

* results are reproducible bit-for-bit for a given seed, and
* different components (e.g. the deployment and each node's wake-up
  schedule) never share a random stream even when configured from a single
  experiment-level seed.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np
import numpy.random  # numpy loads it lazily; load it here, not in the first cell

__all__ = ["make_rng", "derive_seed", "derive_seeds", "spawn_seeds"]

_MASK_63 = (1 << 63) - 1


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a non-deterministic generator (fresh OS entropy); any
    integer yields a deterministic PCG64 stream.
    """
    return np.random.default_rng(seed)


def _component(component: object) -> bytes:
    return b"\x1f" + repr(component).encode("utf-8")


def _path_digest(base_seed: int, components: Iterable[object]):
    digest = hashlib.sha256(str(int(base_seed)).encode("utf-8"))
    for component in components:
        digest.update(_component(component))
    return digest


def _seed_of(digest) -> int:
    return int.from_bytes(digest.digest()[:8], "big") & _MASK_63


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a child seed from ``base_seed`` and a path of components.

    The derivation hashes the textual representation of the path with
    SHA-256, which keeps child streams statistically independent even for
    adjacent base seeds (unlike e.g. ``base_seed + node_id``).

    Parameters
    ----------
    base_seed:
        The experiment- or object-level seed.
    components:
        Arbitrary hashable path elements, e.g. ``("wakeup", node_id)``.

    Returns
    -------
    int
        A non-negative 63-bit integer usable as a numpy seed.
    """
    return _seed_of(_path_digest(base_seed, components))


def derive_seeds(base_seed: int, leaves: Iterable[object], *path: object) -> list[int]:
    """``[derive_seed(base_seed, *path, leaf) for leaf in leaves]``.

    The shared prefix ``(base_seed, *path)`` is hashed once and copied per
    leaf, which roughly halves the cost of deriving many sibling seeds
    (e.g. one wake-up stream per node).
    """
    prefix = _path_digest(base_seed, path)
    seeds = []
    for leaf in leaves:
        digest = prefix.copy()
        digest.update(_component(leaf))
        seeds.append(_seed_of(digest))
    return seeds


def spawn_seeds(base_seed: int, count: int, *path: object) -> list[int]:
    """Return ``count`` derived seeds for the given path prefix."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return derive_seeds(base_seed, range(count), *path)
