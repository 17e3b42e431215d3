"""Evaluation harness regenerating every table and figure of Section V."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.experiments.config": (
            "PAPER_SWEEP",
            "QUICK_SWEEP",
            "RATIO_SWEEP",
            "ExperimentScale",
            "SweepConfig",
            "sweep_from_env",
        ),
        "repro.experiments.figures": (
            "DEFAULT_RATIO_DUTY_MODELS",
            "DEFAULT_RATIO_SCENARIOS",
            "DEFAULT_SCENARIO_SET",
            "DEFAULT_SOURCE_COUNTS",
            "figure3",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure_multisource",
            "figure_ratio",
            "figure_reliability",
            "figure_scenarios",
        ),
        "repro.experiments.runner": ("RunRecord", "SweepResult", "run_sweep"),
        "repro.experiments.tables": ("table2", "table3", "table4"),
        "repro.experiments.report": ("multisource_claims", "ratio_claims", "summary_claims"),
    },
)
