"""Asynchronous duty-cycle substrate: wake-up schedules, rate models, CWT."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.dutycycle.cwt": ("cycle_waiting_time", "expected_cwt", "max_cwt"),
        "repro.dutycycle.models": (
            "DUTY_MODELS",
            "DutyModelSpec",
            "assign_rates",
            "build_wakeup_schedule",
            "duty_model_names",
            "list_duty_models",
            "register_duty_model",
        ),
        "repro.dutycycle.schedule": ("WakeupSchedule",),
    },
)
