"""Shared utilities: seeded RNG helpers, validation, serialization, formatting."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.utils.rng": ("derive_seed", "make_rng"),
        "repro.utils.serialization": ("atomic_write_text", "canonical_json"),
        "repro.utils.validation": (
            "check_non_negative",
            "check_positive",
            "check_probability",
            "require",
        ),
    },
)
