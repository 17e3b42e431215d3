"""Broadcast simulators: engines, traces, validation and metrics."""

from repro.sim.broadcast import ENGINE_BACKENDS, run_broadcast
from repro.sim.energy import EnergyModel, EnergyReport, energy_of_broadcast
from repro.sim.engine import RoundEngine, SimulationTimeout, SlotEngine
from repro.sim.fast_engine import FastRoundEngine, FastSlotEngine
from repro.sim.links import (
    LINK_MODELS,
    IndependentLossLinks,
    LinkModel,
    ReliableLinks,
    build_link_model,
    link_model_names,
)
from repro.sim.metrics import (
    BroadcastMetrics,
    MultiBroadcastMetrics,
    improvement_percent,
)
from repro.sim.render import render_schedule_timeline, render_topology_ascii
from repro.sim.replay import ReplayPolicy
from repro.sim.trace import BroadcastResult, MultiBroadcastResult
from repro.sim.validation import (
    ScheduleViolation,
    assert_valid,
    assert_valid_multi,
    validate_broadcast,
    validate_multi_broadcast,
)

__all__ = [
    "BroadcastMetrics",
    "BroadcastResult",
    "ENGINE_BACKENDS",
    "EnergyModel",
    "EnergyReport",
    "FastRoundEngine",
    "FastSlotEngine",
    "IndependentLossLinks",
    "LINK_MODELS",
    "LinkModel",
    "MultiBroadcastMetrics",
    "MultiBroadcastResult",
    "ReliableLinks",
    "ReplayPolicy",
    "RoundEngine",
    "ScheduleViolation",
    "SimulationTimeout",
    "SlotEngine",
    "assert_valid",
    "assert_valid_multi",
    "build_link_model",
    "energy_of_broadcast",
    "link_model_names",
    "improvement_percent",
    "render_schedule_timeline",
    "render_topology_ascii",
    "run_broadcast",
    "validate_broadcast",
    "validate_multi_broadcast",
]
