"""The paper's contribution: colour schemes, time counter M, E-model, policies."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.core.advance": ("Advance", "BroadcastState"),
        "repro.core.bounds": (
            "duty_cycle_17_bound",
            "duty_cycle_opt_bound",
            "emodel_update_cost",
            "sync_26_bound",
            "sync_opt_bound",
        ),
        "repro.core.coloring": (
            "ColorScheme",
            "enumerate_color_classes",
            "frontier_candidates",
            "greedy_color_classes",
        ),
        "repro.core.estimation": ("EdgeEstimate", "build_edge_estimate"),
        "repro.core.localized": ("LocalizedEModelPolicy", "local_contention_winners"),
        "repro.core.policies": ("EModelPolicy", "GreedyOptPolicy", "OptPolicy", "SchedulingPolicy"),
        "repro.core.time_counter": ("SearchConfig", "TimeCounter"),
    },
)
