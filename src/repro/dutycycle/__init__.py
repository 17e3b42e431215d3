"""Asynchronous duty-cycle substrate: wake-up schedules, rate models, CWT."""

from repro.dutycycle.cwt import cycle_waiting_time, expected_cwt, max_cwt
from repro.dutycycle.models import (
    DUTY_MODELS,
    DutyModelSpec,
    assign_rates,
    build_wakeup_schedule,
    duty_model_names,
    list_duty_models,
    register_duty_model,
)
from repro.dutycycle.schedule import WakeupSchedule

__all__ = [
    "DUTY_MODELS",
    "DutyModelSpec",
    "WakeupSchedule",
    "assign_rates",
    "build_wakeup_schedule",
    "cycle_waiting_time",
    "duty_model_names",
    "expected_cwt",
    "list_duty_models",
    "max_cwt",
    "register_duty_model",
]
