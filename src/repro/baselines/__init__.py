"""Baseline schedulers the paper compares against (Section V / VI)."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.baselines.approx17": ("Approx17Policy",),
        "repro.baselines.approx26": ("Approx26Policy",),
        "repro.baselines.bfs_tree": (
            "BroadcastTree",
            "build_broadcast_tree",
            "greedy_parent_cover",
        ),
        "repro.baselines.flooding": ("FloodingPolicy", "LargestFirstPolicy"),
    },
)
