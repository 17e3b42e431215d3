"""Shared utilities: seeded RNG helpers, validation, serialization, formatting."""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.serialization import atomic_write_text, canonical_json
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
    require,
)

__all__ = [
    "atomic_write_text",
    "canonical_json",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "derive_seed",
    "make_rng",
    "require",
]
