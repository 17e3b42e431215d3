"""Broadcast simulators: engines, traces, validation and metrics."""

from repro.utils.lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "repro.sim.broadcast": ("ENGINE_BACKENDS", "run_broadcast"),
        "repro.sim.energy": ("EnergyModel", "EnergyReport", "energy_of_broadcast"),
        "repro.sim.engine": ("RoundEngine", "SimulationTimeout", "SlotEngine"),
        "repro.sim.fast_engine": ("FastRoundEngine", "FastSlotEngine"),
        "repro.sim.links": (
            "LINK_MODELS",
            "IndependentLossLinks",
            "LinkModel",
            "ReliableLinks",
            "build_link_model",
            "link_model_names",
        ),
        "repro.sim.metrics": ("BroadcastMetrics", "MultiBroadcastMetrics", "improvement_percent"),
        "repro.sim.render": ("render_schedule_timeline", "render_topology_ascii"),
        "repro.sim.replay": ("ReplayPolicy",),
        "repro.sim.trace": ("BroadcastResult", "MultiBroadcastResult"),
        "repro.sim.validation": (
            "ScheduleViolation",
            "assert_valid",
            "assert_valid_multi",
            "validate_broadcast",
            "validate_multi_broadcast",
        ),
    },
)
